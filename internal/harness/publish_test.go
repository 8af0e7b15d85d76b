package harness

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/cover"
	"repro/internal/failpoint"
)

// recordingStore is an in-memory Store that keeps every published payload
// and when each Save began and ended. delay, when set, gives the time the
// n-th Save (1-based) takes; cost is the publish cost it reports (0 means
// unknown).
type recordingStore struct {
	payloads     [][]byte
	delay        func(n int) time.Duration
	cost         time.Duration
	begins, ends []time.Time
}

func (s *recordingStore) Save(payload []byte) (uint64, error) {
	s.begins = append(s.begins, time.Now())
	if s.delay != nil {
		time.Sleep(s.delay(len(s.payloads) + 1))
	}
	s.payloads = append(s.payloads, bytes.Clone(payload))
	s.ends = append(s.ends, time.Now())
	return uint64(len(s.payloads)), nil
}

func (s *recordingStore) PublishCost() time.Duration { return s.cost }

func (s *recordingStore) Load() (*ckptstore.Snapshot, error) {
	if len(s.payloads) == 0 {
		return nil, ckptstore.ErrNoCheckpoint
	}
	n := len(s.payloads)
	return &ckptstore.Snapshot{Payload: s.payloads[n-1], Generation: uint64(n)}, nil
}

// publishedSteps returns how many steps each published payload carries.
func (s *recordingStore) publishedSteps(t *testing.T) []int {
	t.Helper()
	out := make([]int, len(s.payloads))
	for i, p := range s.payloads {
		cp, err := cover.ReadCheckpoint(bytes.NewReader(p))
		if err != nil {
			t.Fatalf("payload %d: %v", i+1, err)
		}
		out[i] = len(cp.Combos)
	}
	return out
}

// upTo returns 1, 2, …, n.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func TestPublishCadence(t *testing.T) {
	// A committed step is published when the leg has not published yet,
	// or once PublishRatio times the cheapest publish the leg measured has
	// passed since the last one; every stop publishes what is left.
	ctx := context.Background()

	t.Run("slow_save_cheap_steps", func(t *testing.T) {
		// A 25 ms Save against microsecond support-pass steps: the first
		// step is published, and the next publish is not due for 200 ms,
		// so the rest reaches the store only at the stop.
		tumor, normal := cohort(t, "ACC", 60, 3, 1)
		store := &recordingStore{delay: func(int) time.Duration { return 25 * time.Millisecond }}
		res, err := Run(ctx, tumor, normal, Options{Cover: cover.Options{Hits: 3, Workers: 2}, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Steps) < 3 {
			t.Fatalf("cohort covers in %d steps; need ≥3 to skip a publish", len(res.Steps))
		}
		if got, want := fmt.Sprint(store.publishedSteps(t)), fmt.Sprint([]int{1, len(res.Steps)}); got != want {
			t.Fatalf("published step counts %s, want %s", got, want)
		}
	})

	// slowSteps makes every step cost milliseconds: the support pass is
	// off, so each pass scans its partitions, and each scan waits 5 ms.
	slowSteps := func(t *testing.T) {
		t.Helper()
		if err := failpoint.Enable("harness/partition", "delay(5ms)"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(failpoint.DisableAll)
	}
	copt := cover.Options{Hits: 2, Workers: 1, NoPrune: true, MaxIterations: 6}

	t.Run("free_save_slow_steps", func(t *testing.T) {
		tumor, normal := cohort(t, "BRCA", 30, 2, 5)
		slowSteps(t)
		store := &recordingStore{}
		res, err := Run(ctx, tumor, normal, Options{Cover: copt, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(store.publishedSteps(t)), fmt.Sprint(upTo(len(res.Steps))); got != want {
			t.Fatalf("published step counts %s, want every step %s", got, want)
		}
	})

	t.Run("one_stalled_save", func(t *testing.T) {
		// The second publish stalls for 100 ms. Sized by that publish, the
		// cadence would skip the next 800 ms of steps; sized by the
		// cheapest, every step is still published.
		tumor, normal := cohort(t, "BRCA", 30, 2, 5)
		slowSteps(t)
		store := &recordingStore{delay: func(n int) time.Duration {
			if n == 2 {
				return 100 * time.Millisecond
			}
			return 0
		}}
		res, err := Run(ctx, tumor, normal, Options{Cover: copt, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Steps) < 4 {
			t.Fatalf("cohort covers in %d steps; need ≥4 to follow the stall", len(res.Steps))
		}
		if got, want := fmt.Sprint(store.publishedSteps(t)), fmt.Sprint(upTo(len(res.Steps))); got != want {
			t.Fatalf("published step counts %s, want every step %s", got, want)
		}
	})

	t.Run("crash_between_publishes", func(t *testing.T) {
		// Killed at every leg's third commit, with publishes skipped in
		// between, the resumed run still equals the uninterrupted one.
		tumor, normal := cohort(t, "ACC", 60, 3, 1)
		opt := Options{Cover: cover.Options{Hits: 3, Workers: 2}}
		ref, err := Run(ctx, tumor, normal, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := crashResume(t, tumor, normal, opt, "panic@3")
		sameSteps(t, "panic@3 crash-resume vs uninterrupted", got.Steps, ref.Steps)
		if got.Covered != ref.Covered || got.Uncoverable != ref.Uncoverable ||
			got.Evaluated != ref.Evaluated || got.Pruned != ref.Pruned {
			t.Fatalf("totals %d/%d/%d/%d, uninterrupted %d/%d/%d/%d",
				got.Covered, got.Uncoverable, got.Evaluated, got.Pruned,
				ref.Covered, ref.Uncoverable, ref.Evaluated, ref.Pruned)
		}
		if !got.Resumed {
			t.Fatal("final leg did not resume")
		}
	})
}

func TestFinalPublishResumesExactly(t *testing.T) {
	// A run that completes publishes its unpublished steps at the stop,
	// after the closing pass that found nothing left to cover. That pass
	// is not a committed step: a leg resumed from the final generation
	// scans it again, so the generation must not count its work.
	tumor, normal := cohort(t, "ACC", 60, 3, 1)
	opt := Options{Cover: cover.Options{Hits: 3, Workers: 2}}
	ref, err := Run(context.Background(), tumor, normal, opt)
	if err != nil {
		t.Fatal(err)
	}
	var stepWork uint64
	for _, s := range ref.Steps {
		stepWork += s.Evaluated + s.Pruned
	}
	if ref.Evaluated+ref.Pruned == stepWork {
		t.Fatal("the run has no closing pass; the test needs one")
	}
	store := &recordingStore{delay: func(int) time.Duration { return 25 * time.Millisecond }}
	opt.Store = store
	if _, err := Run(context.Background(), tumor, normal, opt); err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	got, err := Run(context.Background(), tumor, normal, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReplayedSteps != len(ref.Steps) {
		t.Fatalf("replayed %d steps, want all %d", got.ReplayedSteps, len(ref.Steps))
	}
	sameSteps(t, "resumed from the final generation", got.Steps, ref.Steps)
	if got.Evaluated != ref.Evaluated || got.Pruned != ref.Pruned {
		t.Fatalf("resumed totals %d/%d, uninterrupted %d/%d",
			got.Evaluated, got.Pruned, ref.Evaluated, ref.Pruned)
	}
}

// costedStore is an on-disk store that reports a publish cost.
type costedStore struct {
	*ckptstore.Store
	cost time.Duration
}

func (s costedStore) PublishCost() time.Duration { return s.cost }

func TestPublishWithKnownCost(t *testing.T) {
	// A Store that reports a publish cost makes the leg's start count as
	// its last publish: no step is published before PublishRatio times
	// the cost has passed, and a completed run leaves its leftover steps
	// unpublished unless a publish is due. Deadline and cancel stops
	// still publish every committed step.
	ctx := context.Background()
	slowSteps := func(t *testing.T) {
		t.Helper()
		if err := failpoint.Enable("harness/partition", "delay(5ms)"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(failpoint.DisableAll)
	}
	// One worker scans a pass's four partitions in turn: about 20 ms a
	// step under slowSteps.
	copt := cover.Options{Hits: 2, Workers: 1, NoPrune: true}

	t.Run("completed_cheap_run_publishes_nothing", func(t *testing.T) {
		tumor, normal := cohort(t, "ACC", 60, 3, 1)
		store := &recordingStore{cost: time.Hour}
		res, err := Run(ctx, tumor, normal, Options{Cover: cover.Options{Hits: 3, Workers: 2}, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != StopCompleted || len(res.Steps) < 3 {
			t.Fatalf("stop %s after %d steps; want a completed run of ≥3 steps", res.Stop, len(res.Steps))
		}
		if len(store.payloads) != 0 || res.PersistedGeneration != 0 {
			t.Fatalf("published %v (generation %d), want nothing", store.publishedSteps(t), res.PersistedGeneration)
		}
	})

	t.Run("slow_steps_publish_on_the_cadence", func(t *testing.T) {
		// Each Save takes as long as the reported cost, so the cheapest
		// publish the leg can measure is the cost itself, and every gap
		// before a publish must be at least PublishRatio times it.
		const cost = 5 * time.Millisecond
		tumor, normal := cohort(t, "BRCA", 30, 2, 5)
		slowSteps(t)
		store := &recordingStore{cost: cost, delay: func(int) time.Duration { return cost }}
		opt := copt
		opt.MaxIterations = 12
		start := time.Now()
		res, err := Run(ctx, tumor, normal, Options{Cover: opt, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		steps := store.publishedSteps(t)
		t.Logf("%d steps in %v; published step counts %v", len(res.Steps), res.Elapsed, steps)
		if len(steps) == 0 {
			t.Fatalf("a %v run with a %v publish cost published nothing", res.Elapsed, cost)
		}
		last := start
		for i, begin := range store.begins {
			if gap := begin.Sub(last); gap < PublishRatio*cost {
				t.Fatalf("publish %d began %v after the last durable point, want ≥ %v", i+1, gap, PublishRatio*cost)
			}
			if i > 0 && steps[i] <= steps[i-1] {
				t.Fatalf("published step counts %v do not grow", steps)
			}
			last = store.ends[i]
		}
	})

	stopped := func(t *testing.T, stop Stop, opt Options, ctx context.Context) {
		t.Helper()
		tumor, normal := cohort(t, "BRCA", 30, 2, 5)
		slowSteps(t)
		store := &recordingStore{cost: time.Hour}
		opt.Cover, opt.Store = copt, store
		res, err := Run(ctx, tumor, normal, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != stop || len(res.Steps) == 0 {
			t.Fatalf("stop %s after %d steps, want %s after ≥1", res.Stop, len(res.Steps), stop)
		}
		if got, want := fmt.Sprint(store.publishedSteps(t)), fmt.Sprint([]int{len(res.Steps)}); got != want {
			t.Fatalf("published step counts %s, want %s", got, want)
		}
	}
	t.Run("deadline_stop_publishes_every_step", func(t *testing.T) {
		stopped(t, StopDeadline, Options{Deadline: 100 * time.Millisecond}, ctx)
	})
	t.Run("cancel_stop_publishes_every_step", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		time.AfterFunc(100*time.Millisecond, cancel)
		stopped(t, StopCanceled, Options{}, cctx)
	})

	t.Run("crash_resume_without_cost_on_later_legs", func(t *testing.T) {
		// Every leg is killed at its third commit. The first leg reports
		// a cost and so publishes nothing; a later leg reports none and
		// publishes its first step, so the crash schedule converges on
		// the uninterrupted run, counts included.
		tumor, normal := cohort(t, "ACC", 60, 3, 1)
		copt := cover.Options{Hits: 3, Workers: 2}
		ref, err := Run(ctx, tumor, normal, Options{Cover: copt})
		if err != nil {
			t.Fatal(err)
		}
		defer failpoint.DisableAll()
		dir := t.TempDir()
		var got *Result
		for leg := 0; got == nil; leg++ {
			if leg > 50 {
				t.Fatal("crash-resume did not converge")
			}
			store, err := ckptstore.Open(dir, ckptstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			gens, err := store.Generations()
			if err != nil {
				t.Fatal(err)
			}
			if leg == 1 && len(gens) != 0 {
				t.Fatalf("the first leg reported a cost but published generations %v", gens)
			}
			cs := costedStore{Store: store}
			if leg == 0 {
				cs.cost = time.Hour
			}
			if err := failpoint.Enable("harness/crash", "panic@3"); err != nil {
				t.Fatal(err)
			}
			res, err := func() (res *Result, err error) {
				defer func() {
					if rec := recover(); rec != nil {
						if !failpoint.IsPanic(rec) {
							panic(rec)
						}
						err = fmt.Errorf("killed: %v", rec)
					}
				}()
				return Run(ctx, tumor, normal, Options{Cover: copt, Store: cs, Resume: len(gens) > 0})
			}()
			failpoint.Disable("harness/crash")
			if err == nil {
				got = res
			}
		}
		sameSteps(t, "crash-resume with a cost on the first leg", got.Steps, ref.Steps)
		if got.Covered != ref.Covered || got.Uncoverable != ref.Uncoverable ||
			got.Evaluated != ref.Evaluated || got.Pruned != ref.Pruned {
			t.Fatalf("totals %d/%d/%d/%d, uninterrupted %d/%d/%d/%d",
				got.Covered, got.Uncoverable, got.Evaluated, got.Pruned,
				ref.Covered, ref.Uncoverable, ref.Evaluated, ref.Pruned)
		}
		if !got.Resumed {
			t.Fatal("final leg did not resume")
		}
	})
}
