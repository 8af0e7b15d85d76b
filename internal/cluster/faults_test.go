package cluster

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cover"
	"repro/internal/dataset"
)

// sameCover reports whether two step sequences describe the same
// discovered cover, field for field: both cluster entry points run one
// greedy over one partition plan, so even the Evaluated/Pruned split is
// deterministic.
func sameCover(a, b []cover.Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Combo != y.Combo || x.NewlyCovered != y.NewlyCovered ||
			x.ActiveAfter != y.ActiveAfter ||
			x.Evaluated != y.Evaluated || x.Pruned != y.Pruned {
			return false
		}
	}
	return true
}

func TestFaultPlanValidation(t *testing.T) {
	cases := []FaultPlan{
		{MTBFSec: -1},
		{StragglerFrac: 1.5},
		{StragglerFrac: 0.1, StragglerFactor: 0.5},
		{CheckpointEvery: -1},
		{CheckpointCostSec: -1},
		{RescheduleSec: -1},
		{Policy: RecoveryPolicy(99)},
		{Failures: []RankFailure{{Rank: 8, AtSec: 1}}},
		{Failures: []RankFailure{{Rank: 0, AtSec: -1}}},
	}
	for i, p := range cases {
		if err := p.Validate(4); err == nil {
			t.Errorf("case %d: plan %+v validated", i, p)
		}
	}
	ok := FaultPlan{
		Seed: 7, MTBFSec: 3600, StragglerFrac: 0.05, StragglerFactor: 3,
		Policy: PolicyDegrade, CheckpointEvery: 2, CheckpointCostSec: 1,
		RescheduleSec: 5, Failures: []RankFailure{{Rank: 3, AtSec: 10}},
	}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestSimulateFaultsEmptyPlanMatchesSimulate(t *testing.T) {
	// With nothing injected the fault path must be a pure pass-through:
	// same runtime, same ledgers, a zeroed Recovery section.
	spec := Summit(4)
	w := BRCA4Hit(cover.Scheme3x1)
	want, err := Simulate(spec, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateFaults(spec, w, FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	if got.RuntimeSec != want.RuntimeSec {
		t.Fatalf("empty plan changed runtime: %g != %g", got.RuntimeSec, want.RuntimeSec)
	}
	if !reflect.DeepEqual(got.Ranks, want.Ranks) {
		t.Fatal("empty plan changed rank ledgers")
	}
	if !reflect.DeepEqual(got.Utilization, want.Utilization) {
		t.Fatal("empty plan changed utilization")
	}
	rec := got.Recovery
	if rec == nil {
		t.Fatal("fault run missing Recovery section")
	}
	if rec.FailuresInjected != 0 || rec.StragglersInjected != 0 ||
		rec.RestartCount != 0 || rec.MakeupPasses != 0 {
		t.Fatalf("empty plan injected something: %+v", rec)
	}
	if rec.OverheadSec != 0 || rec.FaultFreeRuntimeSec != want.RuntimeSec {
		t.Fatalf("empty plan has overhead: %+v", rec)
	}
	if rec.SurvivingRanks != spec.Nodes {
		t.Fatalf("surviving ranks %d, want %d", rec.SurvivingRanks, spec.Nodes)
	}
}

// midRunFailure places a death halfway through the fault-free run's
// post-startup virtual time, guaranteeing it lands inside an iteration.
func midRunFailure(t *testing.T, spec Spec, w Workload, rank int) RankFailure {
	t.Helper()
	base, err := Simulate(spec, w)
	if err != nil {
		t.Fatal(err)
	}
	return RankFailure{Rank: rank, AtSec: (base.RuntimeSec - spec.StartupSec) / 2}
}

func TestSimulateFaultsDeterministic(t *testing.T) {
	// Acceptance: same seed, same plan → bit-identical Report, including
	// MTBF-sampled deaths and straggler selection.
	spec := Summit(4)
	w := BRCA4Hit(cover.Scheme3x1)
	plan := FaultPlan{
		Seed:              42,
		Failures:          []RankFailure{midRunFailure(t, spec, w, 2)},
		MTBFSec:           8 * 3600,
		StragglerFrac:     0.10,
		StragglerFactor:   2.0,
		Policy:            PolicyRestart,
		CheckpointEvery:   2,
		CheckpointCostSec: 0.5,
	}
	a, err := SimulateFaults(spec, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateFaults(spec, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault-injected simulation not deterministic:\n%+v\nvs\n%+v", a.Recovery, b.Recovery)
	}
	if a.Recovery.FailuresInjected == 0 {
		t.Fatal("planned failure never fired")
	}
}

func TestSimulateFaultsRestartBooksOverhead(t *testing.T) {
	spec := Summit(4)
	w := BRCA4Hit(cover.Scheme3x1)
	plan := FaultPlan{
		Failures:          []RankFailure{midRunFailure(t, spec, w, 1)},
		Policy:            PolicyRestart,
		CheckpointEvery:   2,
		CheckpointCostSec: 0.25,
	}
	rep, err := SimulateFaults(spec, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Recovery
	if rec.RestartCount != 1 || rec.FailuresInjected != 1 {
		t.Fatalf("expected one restart from one failure: %+v", rec)
	}
	if rec.SurvivingRanks != spec.Nodes {
		t.Fatal("restart must keep the full allocation")
	}
	if rec.CheckpointsTaken == 0 {
		t.Fatal("cadence checkpoints never taken")
	}
	if rec.OverheadSec <= 0 {
		t.Fatalf("restart overhead %g not positive", rec.OverheadSec)
	}
	if got := rep.RuntimeSec - rec.FaultFreeRuntimeSec; got != rec.OverheadSec {
		t.Fatalf("overhead %g inconsistent with runtimes (%g)", rec.OverheadSec, got)
	}
	// Restart replays at least the failure's virtual time plus a fresh
	// startup; checkpoints bound the recomputed iterations.
	if rec.OverheadSec < spec.StartupSec {
		t.Fatalf("overhead %g below a bare startup %g", rec.OverheadSec, spec.StartupSec)
	}
	if rec.RecomputedIterations >= w.Iterations {
		t.Fatalf("checkpoint at cadence %d failed to bound recompute: %d of %d iterations",
			plan.CheckpointEvery, rec.RecomputedIterations, w.Iterations)
	}
}

func TestSimulateFaultsDegradeShrinksMachine(t *testing.T) {
	spec := Summit(4)
	w := BRCA4Hit(cover.Scheme3x1)
	plan := FaultPlan{
		Failures:      []RankFailure{midRunFailure(t, spec, w, 0)},
		Policy:        PolicyDegrade,
		RescheduleSec: 5,
	}
	rep, err := SimulateFaults(spec, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Recovery
	if rec.SurvivingRanks != spec.Nodes-1 {
		t.Fatalf("surviving ranks %d, want %d", rec.SurvivingRanks, spec.Nodes-1)
	}
	if rec.MakeupPasses != 1 {
		t.Fatalf("makeup passes %d, want 1", rec.MakeupPasses)
	}
	if rec.RestartCount != 0 {
		t.Fatal("degrade must not restart")
	}
	if rec.OverheadSec <= 0 {
		t.Fatalf("degraded run overhead %g not positive", rec.OverheadSec)
	}
}

func discoverFixture(t *testing.T) (*dataset.Cohort, cover.Options) {
	t.Helper()
	spec := dataset.Spec{
		Code: "TST", Name: "test", Genes: 24, TumorSamples: 80, NormalSamples: 70,
		Hits: 3, PlantedCombos: 3, DriverMutProb: 0.95,
		TumorBackground: 0.02, NormalBackground: 0.005,
	}
	c, err := dataset.Generate(spec, 21)
	if err != nil {
		t.Fatal(err)
	}
	return c, cover.Options{Hits: 3, Workers: 2}
}

func TestDiscoverFaultsRecoversIdenticalCombos(t *testing.T) {
	// Acceptance criterion: restart-from-checkpoint (and degrade) produce
	// gene combinations identical to the fault-free run on the fixture.
	c, opt := discoverFixture(t)
	spec := Summit(3)
	want, err := Discover(spec, c.Tumor, c.Normal, opt)
	if err != nil {
		t.Fatal(err)
	}
	fail := RankFailure{Rank: 1, AtSec: (want.VirtualSeconds - spec.StartupSec) / 2}
	for _, tc := range []struct {
		name string
		plan FaultPlan
	}{
		{"Restart", FaultPlan{
			Failures: []RankFailure{fail}, Policy: PolicyRestart,
			CheckpointEvery: 1, CheckpointCostSec: 0.5,
		}},
		{"Degrade", FaultPlan{
			Failures: []RankFailure{fail}, Policy: PolicyDegrade, RescheduleSec: 5,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DiscoverFaults(spec, c.Tumor, c.Normal, opt, tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCover(got.Steps, want.Steps) {
				t.Fatalf("recovered steps differ from fault-free run:\n%+v\nvs\n%+v",
					got.Steps, want.Steps)
			}
			if got.Covered != want.Covered || got.Uncoverable != want.Uncoverable {
				t.Fatal("recovered totals differ from fault-free run")
			}
			rec := got.Recovery
			if rec == nil || rec.FailuresInjected != 1 {
				t.Fatalf("failure never fired: %+v", rec)
			}
			if rec.OverheadSec <= 0 {
				t.Fatalf("recovery overhead %g not positive", rec.OverheadSec)
			}
			if got.VirtualSeconds <= want.VirtualSeconds {
				t.Fatal("faulted run not slower than fault-free run")
			}
			switch tc.plan.Policy {
			case PolicyRestart:
				if rec.RestartCount != 1 || rec.SurvivingRanks != spec.Nodes {
					t.Fatalf("restart accounting wrong: %+v", rec)
				}
			case PolicyDegrade:
				if rec.MakeupPasses != 1 || rec.SurvivingRanks != spec.Nodes-1 {
					t.Fatalf("degrade accounting wrong: %+v", rec)
				}
			}
		})
	}
}

func TestDiscoverFaultsEmptyPlanMatchesDiscover(t *testing.T) {
	c, opt := discoverFixture(t)
	spec := Summit(3)
	kopt := opt
	kopt.Kernelize = true
	for _, o := range []cover.Options{opt, kopt} {
		want, err := Discover(spec, c.Tumor, c.Normal, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DiscoverFaults(spec, c.Tumor, c.Normal, o, FaultPlan{})
		if err != nil {
			t.Fatal(err)
		}
		if got.VirtualSeconds != want.VirtualSeconds {
			t.Fatalf("kernelize=%v: empty plan changed virtual time: %g != %g",
				o.Kernelize, got.VirtualSeconds, want.VirtualSeconds)
		}
		if !sameCover(got.Steps, want.Steps) {
			t.Fatalf("kernelize=%v: empty plan changed the discovered cover", o.Kernelize)
		}
		if got.Recovery.OverheadSec != 0 {
			t.Fatalf("kernelize=%v: empty plan has overhead %g", o.Kernelize, got.Recovery.OverheadSec)
		}
	}
}

// TestDiscoverCanceled pins cancellation on both cluster entry points: a
// canceled context ends the run with context.Canceled and no result.
func TestDiscoverCanceled(t *testing.T) {
	c, opt := discoverFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := DiscoverCtx(ctx, Summit(3), c.Tumor, c.Normal, opt); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("DiscoverCtx under a canceled context: %v, %v", res, err)
	}
	plan := FaultPlan{Failures: []RankFailure{{Rank: 1, AtSec: 1}}}
	if res, err := DiscoverFaultsCtx(ctx, Summit(3), c.Tumor, c.Normal, opt, plan); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("DiscoverFaultsCtx under a canceled context: %v, %v", res, err)
	}
}

func TestDiscoverFaultsDeterministic(t *testing.T) {
	c, opt := discoverFixture(t)
	spec := Summit(3)
	plan := FaultPlan{
		Seed: 9, MTBFSec: 2 * 3600, StragglerFrac: 0.2, StragglerFactor: 1.5,
		Policy: PolicyDegrade, RescheduleSec: 3,
	}
	a, err := DiscoverFaults(spec, c.Tumor, c.Normal, opt, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DiscoverFaults(spec, c.Tumor, c.Normal, opt, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault-injected discovery not deterministic:\n%+v\nvs\n%+v",
			a.Recovery, b.Recovery)
	}
}

func TestCampaignFaultsDeterministicAndAccounted(t *testing.T) {
	// The --faults campaign mode: per-job sub-seeds keep the panel
	// reproducible end to end, and the report aggregates recovery costs.
	c := Campaign{
		Nodes: 8,
		Faults: &FaultPlan{
			Seed:              11,
			MTBFSec:           2000, // short enough that several jobs see a death
			StragglerFrac:     0.05,
			StragglerFactor:   2,
			Policy:            PolicyRestart,
			CheckpointEvery:   3,
			CheckpointCostSec: 0.5,
		},
	}
	specs := dataset.FourHitCancers()
	a, err := RunCampaign(c, specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(c, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fault campaign not deterministic")
	}
	if len(a.Jobs) != len(specs) {
		t.Fatalf("campaign priced %d jobs, want %d", len(a.Jobs), len(specs))
	}
	var overhead float64
	var failures int
	for _, j := range a.Jobs {
		if j.Recovery == nil {
			t.Fatalf("%s: fault campaign job missing recovery section", j.Cancer)
		}
		overhead += j.Recovery.OverheadSec
		failures += j.Recovery.FailuresInjected
	}
	if a.TotalOverheadSec != overhead || a.TotalFailures != failures {
		t.Fatal("campaign totals do not sum their jobs' recovery sections")
	}
	if a.TotalFailures == 0 {
		t.Fatal("MTBF 2000s over the panel injected no failures; deterministic plan expected some")
	}
	clean, err := RunCampaign(Campaign{Nodes: 8}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSec <= clean.TotalSec {
		t.Fatal("faulted campaign not slower than fault-free campaign")
	}
	if clean.TotalFailures != 0 || clean.TotalOverheadSec != 0 {
		t.Fatal("fault-free campaign reports recovery costs")
	}
}
