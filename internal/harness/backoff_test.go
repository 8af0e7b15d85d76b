package harness

import (
	"context"
	"testing"
	"time"
)

func TestBackoffDeterministicAcrossRuns(t *testing.T) {
	// The jitter is a pure function of (step, partition, attempt), so any
	// two runs, in any process, wait identically; the pinned delays catch
	// a change to the schedule.
	for _, c := range []struct {
		step, part, attempt int
		want                time.Duration
	}{
		{0, 0, 1, 2133123},
		{1, 3, 2, 2455925},
		{2, 5, 1, 2955779},
	} {
		if got := backoff(c.step, c.part, c.attempt); got != c.want {
			t.Fatalf("backoff(%d,%d,%d) = %v, want %v", c.step, c.part, c.attempt, got, c.want)
		}
	}
}

func TestBackoffCoordinatesChangeJitter(t *testing.T) {
	// Different partitions draw different jitter: retries of neighboring
	// partitions must not thundering-herd. Different steps do too.
	distinct := map[time.Duration]bool{}
	sameStep := 0
	for part := 0; part < 32; part++ {
		distinct[backoff(0, part, 1)] = true
		if backoff(0, part, 1) == backoff(1, part, 1) {
			sameStep++
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("32 partitions drew %d distinct delays; jitter is not mixing", len(distinct))
	}
	if sameStep == 32 {
		t.Fatal("changing the step never changed the backoff sequence")
	}
}

func TestBackoffBoundsAndGrowth(t *testing.T) {
	for attempt := 1; attempt <= 10; attempt++ {
		d := backoff(0, 0, attempt)
		// Nominal delay base·2ⁿ⁻¹ capped at max, jittered in [0.5, 1.5),
		// then re-capped: the result is within [0.5·nominal, max].
		nominal := DefaultBackoffBase << (attempt - 1)
		if nominal > DefaultBackoffMax || nominal <= 0 {
			nominal = DefaultBackoffMax
		}
		if d < nominal/2 || d > DefaultBackoffMax {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, nominal/2, DefaultBackoffMax)
		}
	}
	// Deep attempts (shift past the cap, including shift overflow) stay
	// pinned to the cap's jitter band.
	for _, attempt := range []int{20, 40, 63, 64, 80} {
		if d := backoff(0, 0, attempt); d < DefaultBackoffMax/2 || d > DefaultBackoffMax {
			t.Fatalf("attempt %d: backoff %v escaped the cap band [%v, %v]", attempt, d, DefaultBackoffMax/2, DefaultBackoffMax)
		}
	}
}

func TestSleepCtxCompletes(t *testing.T) {
	start := time.Now()
	if !sleepCtx(context.Background(), 20*time.Millisecond) {
		t.Fatal("uncanceled sleep reported cancellation")
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("sleep returned after only %v", d)
	}
}

func TestSleepCtxCanceledMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if sleepCtx(ctx, 10*time.Second) {
		t.Fatal("canceled sleep reported completion")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v; sleep did not yield promptly", d)
	}
}

func TestSleepCtxZeroDuration(t *testing.T) {
	if !sleepCtx(context.Background(), 0) {
		t.Fatal("zero-duration sleep on a live context reported cancellation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sleepCtx(ctx, 0) {
		t.Fatal("zero-duration sleep on a dead context reported completion")
	}
	if sleepCtx(ctx, time.Millisecond) {
		t.Fatal("sleep on an already-canceled context reported completion")
	}
}
