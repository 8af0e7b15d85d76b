// Command benchreport regenerates every table and figure of the paper's
// evaluation as plain-text reports (the per-experiment index lives in
// DESIGN.md §4).
//
// Usage:
//
//	benchreport -exp all          # run every experiment
//	benchreport -exp fig4a        # one experiment
//	benchreport -exp fig9 -genes 70 -seed 42
//
// Experiments: fig2 fig3 fig4a fig4b fig5 edvea fig6 fig7 fig8 fig9 fig10
// speedup rootmap schedcost memory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// experiment is one regenerable artifact.
type experiment struct {
	name  string
	about string
	run   func(cfg config) (string, error)
}

// config carries the shared flags.
type config struct {
	Genes int
	Seed  int64
	Quick bool
	// BenchOut is where the "kernel" and "sparse" experiments write their
	// JSON records (empty = text only).
	BenchOut string
}

func experiments() []experiment {
	return []experiment{
		{"fig2", "per-thread workload, 2x2 vs 3x1 mapping (G=10)", expFig2},
		{"fig3", "per-GPU workload, ED vs EA scheduling (G=50, 30 GPUs)", expFig3},
		{"fig4a", "strong scaling, BRCA 4-hit 3x1, 100-1000 nodes", expFig4a},
		{"fig4b", "weak scaling, first iteration, 100-500 nodes", expFig4b},
		{"fig5", "memory optimizations ablation (3-hit, measured wall-clock)", expFig5},
		{"edvea", "ED vs EA full-run runtimes (2x2, 100 nodes)", expEDvEA},
		{"fig6", "per-GPU utilization/DRAM/stalls, 2x2, ACC, 600 GPUs", expFig6},
		{"fig7", "per-GPU utilization, 3x1, BRCA, 600 GPUs", expFig7},
		{"fig8", "compute vs communication per MPI rank, 1000 nodes", expFig8},
		{"fig9", "classifier sensitivity/specificity, 11 cancer types", expFig9},
		{"fig10", "mutation-position distributions, IDH1 vs MUC6 (LGG)", expFig10},
		{"speedup", "single-GPU estimate and 6000-GPU speedup", expSpeedup},
		{"rootmap", "log/exp λ→(i,j,k) decode accuracy (Sec. III-F)", expRootmap},
		{"schedcost", "EA schedule computation cost, O(G) vs naive", expSchedCost},
		{"memory", "multi-stage reduction memory plan (Sec. III-E)", expMemory},
		{"schemes", "parallelization-scheme ablation incl. rejected 1x3/4x1", expSchemes},
		{"latency", "latency-aware scheduling (Sec. V future work)", expLatency},
		{"mutlevel", "mutation-level combinations (Sec. V future work)", expMutLevel},
		{"alpha", "F-weight α sensitivity sweep (Sec. II-B design choice)", expAlpha},
		{"fivehit", "5-hit discovery and search-space growth (Sec. V)", expFiveHit},
		{"iterations", "per-iteration BitSplicing timeline at cluster scale", expIterations},
		{"campaign", "11-cancer production-study cost model", expCampaign},
		{"hardware", "V100 vs A100-class device projection", expHardware},
		{"hitcount", "2/3/4-hit comparison on a 4-hit cohort (Sec. I motivation)", expHitCount},
		{"kernel", "kernelization before/after baselines (writes -benchout JSON)", expKernelBench},
		{"sparse", "dense-vs-sparse engine baselines per cohort/scheme (writes -benchout JSON)", expSparse},
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment name or 'all'")
	genes := flag.Int("genes", 70, "scaled gene-universe size for executable discovery experiments")
	seed := flag.Int64("seed", 42, "master RNG seed")
	quick := flag.Bool("quick", false, "shrink the expensive experiments for smoke runs")
	list := flag.Bool("list", false, "list experiments and exit")
	outDir := flag.String("out", "", "also write each experiment's output to <out>/<name>.txt")
	benchOut := flag.String("benchout", "", "write the kernel or sparse experiment's record to this JSON file")
	flag.Parse()

	all := experiments()
	if *list {
		for _, e := range all {
			fmt.Printf("%-10s %s\n", e.name, e.about)
		}
		return
	}
	cfg := config{Genes: *genes, Seed: *seed, Quick: *quick, BenchOut: *benchOut}

	var selected []experiment
	if *exp == "all" {
		selected = all
	} else {
		names := strings.Split(*exp, ",")
		for _, n := range names {
			found := false
			for _, e := range all {
				if e.name == n {
					selected = append(selected, e)
					found = true
					break
				}
			}
			if !found {
				var known []string
				for _, e := range all {
					known = append(known, e.name)
				}
				sort.Strings(known)
				fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n",
					n, strings.Join(known, " "))
				os.Exit(2)
			}
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, e := range selected {
		fmt.Printf("### %s — %s\n\n", e.name, e.about)
		out, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		if *outDir != "" {
			path := filepath.Join(*outDir, e.name+".txt")
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				os.Exit(1)
			}
		}
	}
}
