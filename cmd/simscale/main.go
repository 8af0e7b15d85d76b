// Command simscale runs the Summit-scale performance model: strong and
// weak scaling studies, single runs with per-GPU profiles, and ED-vs-EA
// comparisons — everything behind Fig. 4, 6, 7 and 8 at arbitrary
// configurations.
//
// Usage:
//
//	simscale -mode strong -nodes 100,200,500,1000
//	simscale -mode weak -nodes 100,300,500
//	simscale -mode run -nodes 100 -scheme 2x2 -cancer ACC -profile
//	simscale -mode run -nodes 100 -faults -fault-mtbf-hours 2 -checkpoint-every 3
//	simscale -mode campaign -nodes 8 -faults -fault-policy degrade
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/kernelize"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	mode := flag.String("mode", "strong", "strong, weak, run, or campaign")
	nodesFlag := flag.String("nodes", "100,200,300,400,500,600,700,800,900,1000", "node counts")
	cancer := flag.String("cancer", "BRCA", "workload cohort: BRCA or ACC")
	schemeFlag := flag.String("scheme", "3x1", "kernel scheme: 2x1, 2x2, 3x1")
	scheduler := flag.String("scheduler", "EA", "EA or ED")
	engineFlag := flag.String("engine", "auto", "scan engine to report provenance for: auto, dense, sparse (docs/SPARSE.md)")
	iterations := flag.Int("iterations", 0, "override cover-loop iterations (0 = workload default)")
	profile := flag.Bool("profile", false, "print per-GPU utilization and rank ledger for -mode run")
	faults := flag.Bool("faults", false, "inject faults and price recovery (run and campaign modes, see docs/FAULTS.md)")
	faultPolicy := flag.String("fault-policy", "restart", "recovery policy: restart or degrade")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for sampled failures and straggler selection")
	faultMTBF := flag.Float64("fault-mtbf-hours", 1.0, "per-node mean time between failures in hours (0 disables sampled deaths)")
	faultStragglers := flag.Float64("fault-stragglers", 0.02, "fraction of GPUs injected as stragglers")
	faultSlowdown := flag.Float64("fault-straggler-slowdown", 2.0, "busy-time multiplier for injected stragglers")
	checkpointEvery := flag.Int("checkpoint-every", 3, "checkpoint cadence in iterations (0 = none)")
	kernel := flag.Bool("kernelize", false, "price the kernelized enumeration: measure the dominated-gene shrink on a seeded reduced-scale cohort and scale it to the workload's gene axis (docs/KERNELIZATION.md)")
	kernelSample := flag.Int("kernelize-sample", 400, "reduced-scale gene universe for the -kernelize shrink measurement")
	kernelSeed := flag.Int64("kernelize-seed", 42, "cohort seed for the -kernelize shrink measurement")
	flag.Parse()

	var plan *cluster.FaultPlan
	if *faults {
		plan = &cluster.FaultPlan{
			Seed:              *faultSeed,
			MTBFSec:           *faultMTBF * 3600,
			StragglerFrac:     *faultStragglers,
			StragglerFactor:   *faultSlowdown,
			CheckpointEvery:   *checkpointEvery,
			CheckpointCostSec: 1.0,
			RescheduleSec:     10.0,
		}
		switch *faultPolicy {
		case "restart":
			plan.Policy = cluster.PolicyRestart
		case "degrade":
			plan.Policy = cluster.PolicyDegrade
		default:
			fatal(fmt.Errorf("unknown fault policy %q", *faultPolicy))
		}
	}

	var scheme cover.Scheme
	switch *schemeFlag {
	case "2x1":
		scheme = cover.Scheme2x1
	case "2x2":
		scheme = cover.Scheme2x2
	case "3x1":
		scheme = cover.Scheme3x1
	default:
		fatal(fmt.Errorf("unknown scheme %q", *schemeFlag))
	}

	var w cluster.Workload
	switch *cancer {
	case "BRCA":
		w = cluster.BRCA4Hit(scheme)
	case "ACC":
		w = cluster.ACC4Hit(scheme)
	default:
		fatal(fmt.Errorf("workloads available for BRCA and ACC, got %q", *cancer))
	}
	if *scheduler == "ED" {
		w.Scheduler = cover.EquiDistance
	}
	if *iterations > 0 {
		w.Iterations = *iterations
	}
	if *kernel {
		frac, err := kernelShrink(*cancer, *kernelSample, *kernelSeed)
		if err != nil {
			fatal(err)
		}
		w.KernelGenes = int(math.Round(float64(w.Genes) * frac))
		if w.KernelGenes < 4 {
			w.KernelGenes = 4
		}
		fmt.Printf("kernelize: measured gene shrink %.3f on a %d-gene seeded cohort; pricing G=%d -> %d\n",
			frac, *kernelSample, w.Genes, w.KernelGenes)
	}

	// Engine provenance: the performance model prices the dense word sweep
	// (the paper's GPU kernel); the -engine flag reports what the engine's
	// occupancy heuristic would actually run on this workload, measured on
	// the same seeded reduced-scale cohort the -kernelize shrink uses.
	resolved, meanRow, err := resolveEngine(*cancer, *engineFlag, scheme, *kernelSample, *kernelSeed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("engine: %s (requested %s, measured row occupancy %.2f on a %d-gene seeded cohort); the model prices the dense sweep — see BENCH_9.json for measured sparse speedups\n",
		resolved, *engineFlag, meanRow, *kernelSample)

	nodes, err := parseNodes(*nodesFlag)
	if err != nil {
		fatal(err)
	}

	if plan != nil && *mode != "run" && *mode != "campaign" {
		fatal(fmt.Errorf("-faults applies to run and campaign modes, not %q", *mode))
	}

	switch *mode {
	case "strong":
		pts, err := cluster.StrongScaling(w, nodes)
		if err != nil {
			fatal(err)
		}
		printPoints("Strong scaling", w, pts)
	case "weak":
		pts, err := cluster.WeakScaling(w, nodes)
		if err != nil {
			fatal(err)
		}
		printPoints("Weak scaling (first iteration)", w, pts)
	case "run":
		var rep *cluster.Report
		var err error
		if plan != nil {
			rep, err = cluster.SimulateFaults(cluster.Summit(nodes[0]), w, *plan)
		} else {
			rep, err = cluster.Simulate(cluster.Summit(nodes[0]), w)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s %s %s on %d nodes (%d GPUs): runtime %.1f s\n",
			*cancer, w.Scheme, w.Scheduler, nodes[0], nodes[0]*6, rep.RuntimeSec)
		if rep.Recovery != nil {
			fmt.Print("\n" + recoveryText(rep.Recovery))
		}
		if *profile {
			fmt.Println()
			fmt.Print(report.Series{Title: "Per-GPU utilization", XLabel: "gpu",
				YLabel: "utilization", Y: rep.Utilization}.String())
			lo, hi := stats.MinMax(rep.Utilization)
			fmt.Printf("\nutilization range %.3f - %.3f, mean %.3f\n",
				lo, hi, stats.Mean(rep.Utilization))
			t := report.NewTable("Rank ledger (extremes)", "rank", "compute (s)", "comm (s)", "wait (s)")
			for _, r := range []int{0, len(rep.Ranks) / 2, len(rep.Ranks) - 1} {
				rk := rep.Ranks[r]
				t.Addf(rk.Rank, rk.ComputeSec, rk.CommSec, rk.WaitSec)
			}
			fmt.Print("\n" + t.String())
		}
	case "campaign":
		rep, err := cluster.RunCampaign(cluster.Campaign{
			Nodes:  nodes[0],
			Scheme: scheme,
			Faults: plan,
		}, dataset.FourHitCancers())
		if err != nil {
			fatal(err)
		}
		if plan == nil {
			t := report.NewTable(fmt.Sprintf("11-cancer campaign, %d nodes per job", nodes[0]),
				"cancer", "runtime (s)", "node-hours")
			for _, j := range rep.Jobs {
				t.Addf(j.Cancer, j.RuntimeSec, j.NodeHours)
			}
			fmt.Print(t.String())
		} else {
			t := report.NewTable(
				fmt.Sprintf("11-cancer campaign with faults (%s policy), %d nodes per job",
					plan.Policy, nodes[0]),
				"cancer", "runtime (s)", "node-hours", "failures", "ckpts", "overhead (s)")
			for _, j := range rep.Jobs {
				t.Addf(j.Cancer, j.RuntimeSec, j.NodeHours,
					j.Recovery.FailuresInjected, j.Recovery.CheckpointsTaken,
					j.Recovery.OverheadSec)
			}
			fmt.Print(t.String())
			fmt.Printf("failures %d, recovery overhead %.0f s (%.1f%% of fault-free time)\n",
				rep.TotalFailures, rep.TotalOverheadSec,
				100*rep.TotalOverheadSec/(rep.TotalSec-rep.TotalOverheadSec))
		}
		fmt.Printf("total %.0f s, %.0f node-hours\n", rep.TotalSec, rep.TotalNodeHours)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// kernelShrink measures the surviving-gene fraction of the dominance
// kernel on a seeded reduced-scale cohort of the given cancer. The paper
// matrices are not shipped, so the performance model extrapolates the
// measured fraction to the workload's full gene axis — the same
// reduced-scale stand-in every differential test uses.
func kernelShrink(cancer string, genes int, seed int64) (float64, error) {
	spec, err := dataset.ByCode(cancer)
	if err != nil {
		return 0, err
	}
	spec = spec.Scaled(genes)
	cohort, err := dataset.Generate(spec, seed)
	if err != nil {
		return 0, err
	}
	kern, err := kernelize.ReduceGenes(cohort.Tumor, cohort.Normal, spec.Hits)
	if err != nil {
		return 0, err
	}
	return float64(kern.Tumor.Genes()) / float64(cohort.Tumor.Genes()), nil
}

// resolveEngine reports which scan engine the cover layer's row-occupancy
// heuristic picks for this workload: it regenerates the seeded
// reduced-scale stand-in cohort and runs the real cover.ResolveEngine
// over it, so the provenance line matches what `multihit -engine auto`
// would execute on the same data. The returned float is the cohort's
// mean row occupancy (set samples per gene row), the quantity the
// heuristic compares against cover.SparseCrossover.
func resolveEngine(cancer, engine string, scheme cover.Scheme, genes int, seed int64) (cover.Engine, float64, error) {
	req, err := cover.ParseEngine(engine)
	if err != nil {
		return req, 0, err
	}
	spec, err := dataset.ByCode(cancer)
	if err != nil {
		return req, 0, err
	}
	spec = spec.Scaled(genes)
	cohort, err := dataset.Generate(spec, seed)
	if err != nil {
		return req, 0, err
	}
	hits := 4
	if scheme == cover.Scheme2x1 {
		hits = 3
	}
	opt, err := cover.Options{Hits: hits, Engine: req}.Normalized()
	if err != nil {
		return req, 0, err
	}
	rows := float64(cohort.Tumor.Genes() + cohort.Normal.Genes())
	meanRow := float64(cohort.Tumor.PopCount()+cohort.Normal.PopCount()) / rows
	return cover.ResolveEngine(opt, cohort.Tumor, cohort.Normal), meanRow, nil
}

func parseNodes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad node count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func printPoints(title string, w cluster.Workload, pts []cluster.ScalingPoint) {
	table := report.NewTable(
		fmt.Sprintf("%s: %s scheme, %s scheduler", title, w.Scheme, w.Scheduler),
		"nodes", "GPUs", "runtime (s)", "efficiency")
	for _, p := range pts {
		table.Addf(p.Nodes, p.Nodes*6, p.RuntimeSec, p.Efficiency)
	}
	fmt.Print(table.String())
}

func recoveryText(rec *cluster.Recovery) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery (%s policy):\n", rec.Policy)
	fmt.Fprintf(&b, "  failures injected    %d\n", rec.FailuresInjected)
	for _, f := range rec.Failures {
		fmt.Fprintf(&b, "    rank %d died at %.1f s\n", f.Rank, f.AtSec)
	}
	fmt.Fprintf(&b, "  stragglers injected  %d\n", rec.StragglersInjected)
	fmt.Fprintf(&b, "  checkpoints taken    %d (%.1f s)\n", rec.CheckpointsTaken, rec.CheckpointCostSec)
	fmt.Fprintf(&b, "  recomputed           %d iterations (%.1f s)\n",
		rec.RecomputedIterations, rec.RecomputedWorkSec)
	fmt.Fprintf(&b, "  restarts / makeups   %d / %d\n", rec.RestartCount, rec.MakeupPasses)
	fmt.Fprintf(&b, "  surviving ranks      %d\n", rec.SurvivingRanks)
	fmt.Fprintf(&b, "  fault-free runtime   %.1f s\n", rec.FaultFreeRuntimeSec)
	fmt.Fprintf(&b, "  overhead             %.1f s\n", rec.OverheadSec)
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simscale:", err)
	os.Exit(1)
}
