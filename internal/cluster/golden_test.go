package cluster

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cover"
)

// goldenPath holds the virtual-clock dump of virtualClockDump. Every float
// is printed in hexadecimal (strconv 'x' format), so a match is a match of
// bits, not of a rounded decimal.
const goldenPath = "testdata/virtualclock.golden"

// hexf prints a float64 exactly.
func hexf(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

func dumpRanks(b *strings.Builder, ranks []RankReport) {
	for _, r := range ranks {
		fmt.Fprintf(b, "  rank %d compute=%s comm=%s wait=%s\n",
			r.Rank, hexf(r.ComputeSec), hexf(r.CommSec), hexf(r.WaitSec))
	}
}

func dumpRecovery(b *strings.Builder, rec *Recovery) {
	if rec == nil {
		b.WriteString("  recovery nil\n")
		return
	}
	fmt.Fprintf(b, "  recovery policy=%s failures=%d stragglers=%d checkpoints=%d checkpoint_sec=%s\n",
		rec.Policy, rec.FailuresInjected, rec.StragglersInjected, rec.CheckpointsTaken, hexf(rec.CheckpointCostSec))
	fmt.Fprintf(b, "  recovery recomputed=%d recomputed_sec=%s makeups=%d restarts=%d surviving=%d\n",
		rec.RecomputedIterations, hexf(rec.RecomputedWorkSec), rec.MakeupPasses, rec.RestartCount, rec.SurvivingRanks)
	fmt.Fprintf(b, "  recovery fault_free=%s overhead=%s\n", hexf(rec.FaultFreeRuntimeSec), hexf(rec.OverheadSec))
	for _, f := range rec.Failures {
		fmt.Fprintf(b, "  failure rank=%d at=%s\n", f.Rank, hexf(f.AtSec))
	}
}

func dumpReport(b *strings.Builder, name string, rep *Report, err error) {
	if err != nil {
		fmt.Fprintf(b, "%s error: %v\n", name, err)
		return
	}
	fmt.Fprintf(b, "%s runtime=%s\n", name, hexf(rep.RuntimeSec))
	dumpRanks(b, rep.Ranks)
	for _, it := range rep.Iterations {
		fmt.Fprintf(b, "  iter %d tumor=%d words=%d max=%s gpu=%d\n",
			it.Iteration, it.TumorRemaining, it.RowWords, hexf(it.MaxBusySec), it.CriticalGPU)
	}
	dumpRecovery(b, rep.Recovery)
}

func dumpDiscover(b *strings.Builder, name string, res *DiscoverResult, err error) {
	if err != nil {
		fmt.Fprintf(b, "%s error: %v\n", name, err)
		return
	}
	fmt.Fprintf(b, "%s virtual=%s\n", name, hexf(res.VirtualSeconds))
	dumpRanks(b, res.Ranks)
	dumpRecovery(b, res.Recovery)
}

type namedPlan struct {
	name string
	plan FaultPlan
}

// faultPlans returns the four plan shapes per policy the golden covers:
// CheckpointEvery ∈ {0, 2} × {one explicit failure at mid, an MTBF of
// mtbf plus 10% stragglers}.
func faultPlans(mid RankFailure, mtbf float64) []namedPlan {
	var out []namedPlan
	for _, policy := range []RecoveryPolicy{PolicyRestart, PolicyDegrade} {
		for _, every := range []int{0, 2} {
			explicit := FaultPlan{
				Failures: []RankFailure{mid}, Policy: policy,
				CheckpointEvery: every, CheckpointCostSec: 0.5, RescheduleSec: 5,
			}
			sampled := FaultPlan{
				Seed: 5, MTBFSec: mtbf, StragglerFrac: 0.10, StragglerFactor: 2,
				Policy: policy, CheckpointEvery: every, CheckpointCostSec: 0.5, RescheduleSec: 5,
			}
			out = append(out,
				namedPlan{fmt.Sprintf("%s/every=%d/explicit", policy, every), explicit},
				namedPlan{fmt.Sprintf("%s/every=%d/mtbf", policy, every), sampled})
		}
	}
	return out
}

// virtualClockDump prices the runs the golden pins: Simulate over both
// paper workloads and three schedulers, SimulateFaults and DiscoverFaults
// over every fault plan shape on the Discover fixture (and SimulateFaults
// on BRCA as well), and one weak-scaling ladder.
func virtualClockDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	spec := Summit(4)
	for _, base := range []struct {
		name string
		w    Workload
	}{
		{"BRCA4Hit/3x1", BRCA4Hit(cover.Scheme3x1)},
		{"ACC4Hit/2x2", ACC4Hit(cover.Scheme2x2)},
	} {
		for _, sch := range []string{"EA", "ED", "EA+LatencyAware"} {
			w := base.w
			switch sch {
			case "ED":
				w.Scheduler = cover.EquiDistance
			case "EA+LatencyAware":
				w.LatencyAware = true
			}
			rep, err := Simulate(spec, w)
			dumpReport(&b, "Simulate "+base.name+"/"+sch, rep, err)
		}
	}

	c, opt := discoverFixture(t)
	fixture := Workload{
		Genes: c.Tumor.Genes(), TumorSamples: c.Tumor.Samples(), NormalSamples: c.Normal.Samples(),
		Scheme: cover.Scheme2x1, Iterations: 8, SpliceShrink: 0.45,
	}
	for _, m := range []struct {
		name string
		spec Spec
		w    Workload
	}{
		{"fixture", Summit(3), fixture},
		{"BRCA4Hit/3x1", spec, BRCA4Hit(cover.Scheme3x1)},
	} {
		clean, err := Simulate(m.spec, m.w)
		if err != nil {
			t.Fatal(err)
		}
		run := clean.RuntimeSec - m.spec.StartupSec
		for _, p := range faultPlans(RankFailure{Rank: 1, AtSec: run / 2}, 3*run) {
			rep, err := SimulateFaults(m.spec, m.w, p.plan)
			dumpReport(&b, "SimulateFaults "+m.name+"/"+p.name, rep, err)
		}
	}

	dspec := Summit(3)
	clean, err := Discover(dspec, c.Tumor, c.Normal, opt)
	if err != nil {
		t.Fatal(err)
	}
	dumpDiscover(&b, "Discover fixture", clean, nil)
	run := clean.VirtualSeconds - dspec.StartupSec
	for _, p := range faultPlans(RankFailure{Rank: 1, AtSec: run / 2}, 3*run) {
		res, err := DiscoverFaults(dspec, c.Tumor, c.Normal, opt, p.plan)
		dumpDiscover(&b, "DiscoverFaults fixture/"+p.name, res, err)
	}

	pts, err := WeakScaling(BRCA4Hit(cover.Scheme3x1), []int{100, 300, 500})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		fmt.Fprintf(&b, "WeakScaling nodes=%d runtime=%s efficiency=%s\n",
			p.Nodes, hexf(p.RuntimeSec), hexf(p.Efficiency))
	}
	return b.String()
}

// TestVirtualClockGolden pins the simulated cluster's virtual clock bit for
// bit: runtimes, rank ledgers, the model's iteration timeline and every
// Recovery field.
func TestVirtualClockGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := virtualClockDump(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i, shown := 0, 0; (i < len(gl) || i < len(wl)) && shown < 20; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s:%d:\n got %q\nwant %q", goldenPath, i+1, g, w)
			shown++
		}
	}
}
