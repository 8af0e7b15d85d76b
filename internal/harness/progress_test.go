package harness

import (
	"context"
	"testing"

	"repro/internal/cover"
	"repro/internal/failpoint"
)

func TestOnProgressCountsEveryPartition(t *testing.T) {
	// Every greedy step must report exactly Total per-partition progress
	// calls, with Done climbing monotonically from 1 to Total and a zero
	// Unscanned bound when nothing is quarantined.
	tumor, normal := cohort(t, "BRCA", 40, 2, 7)
	workers := 3
	var reports []Progress
	res, err := Run(context.Background(), tumor, normal, Options{
		Cover:      cover.Options{Hits: 2, Workers: workers},
		OnProgress: func(p Progress) { reports = append(reports, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no progress reported")
	}
	total := workers * cover.PartitionsPerWorker
	perStep := map[int]int{}
	lastDone := map[int]int{}
	for _, p := range reports {
		if p.Total != total {
			t.Fatalf("Total = %d, want %d", p.Total, total)
		}
		if p.Done != lastDone[p.Step]+1 {
			t.Fatalf("step %d: Done jumped from %d to %d", p.Step, lastDone[p.Step], p.Done)
		}
		lastDone[p.Step] = p.Done
		perStep[p.Step]++
		if p.Quarantined != 0 || p.Unscanned != 0 {
			t.Fatalf("clean run reported quarantine progress: %+v", p)
		}
	}
	// The final step may end early only via cancellation — here every
	// pass runs to completion, so each scanned step reports Total calls.
	// A full cover of S steps scans S+1 passes only when the loop needed
	// a final no-winner pass; count the passes actually run.
	if len(perStep) < len(res.Steps) {
		t.Fatalf("progress covered %d steps, result has %d", len(perStep), len(res.Steps))
	}
	for step, n := range perStep {
		if n != total {
			t.Fatalf("step %d reported %d calls, want %d", step, n, total)
		}
	}
}

func TestOnProgressReportsUnscannedBound(t *testing.T) {
	// A quarantined partition must surface in the progress stream: the
	// step's Quarantined count rises and Unscanned converges to the
	// result's final coverage bound.
	defer failpoint.DisableAll()
	tumor, normal := cohort(t, "BRCA", 36, 2, 3)
	if err := failpoint.Enable("harness/partition", "error@1-3"); err != nil {
		t.Fatal(err)
	}
	var last Progress
	sawQuarantine := false
	res, err := Run(context.Background(), tumor, normal, Options{
		Cover: cover.Options{Hits: 2, Workers: 1},
		OnProgress: func(p Progress) {
			if p.Quarantined > 0 {
				sawQuarantine = true
			}
			if p.Unscanned < last.Unscanned {
				t.Errorf("Unscanned bound shrank: %d after %d", p.Unscanned, last.Unscanned)
			}
			last = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawQuarantine {
		t.Fatal("quarantine never surfaced in progress")
	}
	if res.Unscanned == 0 || last.Unscanned != res.Unscanned {
		t.Fatalf("final progress bound %d, result Unscanned %d", last.Unscanned, res.Unscanned)
	}
}

func TestOnProgressReportsSettledPasses(t *testing.T) {
	// A pass the engine settles from the active samples' own h-subsets
	// scans no partitions, yet every step must still reach a Done ==
	// Total report, or the service's per-pass progress would stall.
	tumor, normal := cohort(t, "ACC", 100, 4, 1)
	var reports []Progress
	res, err := Run(context.Background(), tumor, normal, Options{
		Cover:      cover.Options{Hits: 4, Kernelize: true, Workers: 2},
		OnProgress: func(p Progress) { reports = append(reports, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	finished := map[int]bool{}
	settled := 0
	for _, p := range reports {
		if p.Done == p.Total {
			finished[p.Step] = true
		}
		if p.Total == 0 {
			settled++
		}
	}
	for i := range res.Steps {
		if !finished[i] {
			t.Fatalf("step %d of %d never reported Done == Total", i, len(res.Steps))
		}
	}
	if settled == 0 {
		t.Fatal("no pass was settled without a scan; the case no longer exercises the support pass")
	}
	t.Logf("%d steps, %d progress reports, %d settled passes", len(res.Steps), len(reports), settled)
}
