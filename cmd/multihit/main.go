// Command multihit runs end-to-end multi-hit combination discovery on a
// synthetic TCGA-like cohort and prints the discovered combinations.
//
// Usage:
//
//	multihit -cancer LGG -genes 70 -hits 4
//	multihit -cancer BRCA -genes 300 -hits 3 -scheduler ED
//	multihit -cancer ACC -hits 2 -max-iter 5 -v
//	multihit -tumor-maf tumor.maf -normal-maf normal.maf -hits 2
//	multihit -cancer LGG -genes 22 -hits 5
//
// The gene universe is scaled to -genes because a full 19 411-gene 4-hit
// enumeration needs the 6000-GPU machine the paper used; see cmd/simscale
// for the paper-scale performance model.
//
// # Exit codes
//
// multihit exits with the repo-wide contract defined once in
// internal/service (a CLI leg and a daemon job are the same run in
// different clothing):
//
//	0 (service.ExitOK)        complete cover: the greedy loop ran to its
//	                          natural end
//	1 (service.ExitFailure)   failure: bad usage (an unknown flag or a
//	                          malformed value included), IO error, failed
//	                          resume, engine error
//	3 (service.ExitEarlyStop) early stop: deadline or signal ended the run
//	                          with a best-so-far cover checkpointed for the
//	                          next leg
//
// -h prints the flags and exits 0. Batch scripts branch on 3 to schedule
// the next leg (-checkpoint-dir, then -resume) instead of alerting;
// exitcode_test.go pins all three paths.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/failpoint"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/stats"
)

func main() {
	// ContinueOnError so a flag error exits with the contract's failure
	// code (flag.ExitOnError would exit 2).
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	cancer := flag.String("cancer", "BRCA", "TCGA study code (BRCA or one of the 11 four-hit cancers)")
	genes := flag.Int("genes", 70, "scaled gene-universe size")
	hits := flag.Int("hits", 4, "combination size h (2-5)")
	cohortFile := flag.String("cohort-file", "", "read a cohort written by gendata -cohort instead of generating")
	tumorMAF := flag.String("tumor-maf", "", "read the tumor cohort from a MAF file instead of generating")
	normalMAF := flag.String("normal-maf", "", "read the normal cohort from a MAF file")
	scheme := flag.String("scheme", "auto", "parallelization scheme: auto, pair, 2x1, 2x2, 3x1")
	scheduler := flag.String("scheduler", "EA", "workload scheduler: EA or ED")
	engine := flag.String("engine", "auto", "scan engine: auto (density-driven), dense, sparse; see docs/SPARSE.md")
	workers := flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	kernelize := flag.Bool("kernelize", false, "reduce the instance (dominated genes, duplicate sample columns) before enumeration; see docs/KERNELIZATION.md")
	maxIter := flag.Int("max-iter", 0, "cap on discovered combinations (0 = run to completion)")
	seed := flag.Int64("seed", 42, "cohort generation seed")
	verbose := flag.Bool("v", false, "print per-iteration details")
	ckptDir := flag.String("checkpoint-dir", "", "supervised mode: generational crash-safe checkpoint store directory")
	resume := flag.Bool("resume", false, "supervised mode: resume from -checkpoint-dir (fails if there is nothing to resume)")
	deadline := flag.Duration("deadline", 0, "supervised mode: wall-clock budget; on expiry the best-so-far cover is checkpointed and printed")
	chaos := flag.String("chaos", "", "failpoint specs to arm, e.g. 'harness/crash=panic@1;cover/kernel=delay(5ms)'")
	jsonOut := flag.Bool("json", false, "emit the result as JSON on stdout (machine-readable)")
	topk := flag.Int("topk", 0, "instead of the greedy cover, print the K best combinations of one pass")
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		// The flag package has already printed the error and the usage.
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(service.ExitOK)
		}
		os.Exit(service.ExitFailure)
	}

	// Chaos first: failpoints from the environment, then the flag, so a
	// scripted scenario can arm injection before any IO happens.
	if _, err := failpoint.FromEnv(); err != nil {
		fatal(err)
	}
	if *chaos != "" {
		if _, err := failpoint.EnableSpecs(*chaos); err != nil {
			fatal(err)
		}
	}

	var cohort *dataset.Cohort
	if *cohortFile != "" {
		f, err := os.Open(*cohortFile)
		if err != nil {
			fatal(err)
		}
		cohort, err = dataset.Load(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("%s (from %s): G=%d, %d tumor / %d normal samples\n",
				cohort.Spec.Code, *cohortFile, cohort.Spec.Genes, cohort.Nt(), cohort.Nn())
		}
	} else if *tumorMAF != "" || *normalMAF != "" {
		if *tumorMAF == "" || *normalMAF == "" {
			fatal(fmt.Errorf("-tumor-maf and -normal-maf must be given together"))
		}
		tf, err := os.Open(*tumorMAF)
		if err != nil {
			fatal(err)
		}
		defer tf.Close()
		nf, err := os.Open(*normalMAF)
		if err != nil {
			fatal(err)
		}
		defer nf.Close()
		cohort, err = dataset.FromMAF(*cancer, tf, nf)
		if err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("%s (from MAF): G=%d, %d tumor / %d normal samples\n",
				*cancer, cohort.Spec.Genes, cohort.Nt(), cohort.Nn())
		}
	} else {
		spec, err := dataset.ByCode(*cancer)
		if err != nil {
			fatal(err)
		}
		if *hits >= 2 && *hits <= cover.MaxHits {
			spec.Hits = *hits
		}
		// Scale after setting Hits so the planted-combo footprint shrinks
		// to fit the reduced gene universe.
		spec = spec.Scaled(*genes)
		cohort, err = dataset.Generate(spec, *seed)
		if err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("%s (%s): G=%d, %d tumor / %d normal samples, seed %d\n",
				spec.Code, spec.Name, spec.Genes, cohort.Nt(), cohort.Nn(), *seed)
		}
	}

	opt := cover.Options{
		Hits:          *hits,
		Workers:       *workers,
		Kernelize:     *kernelize,
		MaxIterations: *maxIter,
	}
	switch *scheme {
	case "auto":
	case "pair":
		opt.Scheme = cover.SchemePair
	case "2x1":
		opt.Scheme = cover.Scheme2x1
	case "2x2":
		opt.Scheme = cover.Scheme2x2
	case "3x1":
		opt.Scheme = cover.Scheme3x1
	default:
		fatal(fmt.Errorf("unknown scheme %q", *scheme))
	}
	switch *scheduler {
	case "EA":
		opt.Scheduler = cover.EquiArea
	case "ED":
		opt.Scheduler = cover.EquiDistance
	default:
		fatal(fmt.Errorf("unknown scheduler %q", *scheduler))
	}
	eng, err := cover.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	opt.Engine = eng

	if *topk > 0 {
		combos, err := cover.FindTopK(cohort.Tumor, cohort.Normal, nil, opt, *topk)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ntop %d combinations of one enumeration pass:\n", len(combos))
		for i, c := range combos {
			var syms []string
			for _, id := range c.GeneIDs() {
				syms = append(syms, cohort.GeneSymbols[id])
			}
			fmt.Printf("  %2d. %-40s F=%.4f\n", i+1, strings.Join(syms, "+"), c.F)
		}
		return
	}

	if *ckptDir != "" || *resume || *deadline > 0 {
		runSupervised(cohort, opt, *ckptDir, *resume, *deadline, *jsonOut, *verbose)
		return
	}

	start := time.Now()
	res, err := core.Discover(cohort, opt)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("\n%d combinations in %s (%d combinations scored):\n",
		len(res.Combos), time.Since(start).Round(time.Millisecond), res.Evaluated)
	for i, combo := range res.Combos {
		fmt.Printf("  %2d. %s\n", i+1, combo)
	}
	fmt.Printf("\ncovered %d of %d tumor samples (%s); %d uncoverable\n",
		res.Covered, cohort.Nt(),
		stats.Percent(float64(res.Covered)/float64(cohort.Nt())), res.Uncoverable)
	if *verbose {
		fmt.Println("\nplanted ground truth:")
		for i, planted := range cohort.Planted {
			fmt.Printf("  %2d. ", i+1)
			for j, g := range planted {
				if j > 0 {
					fmt.Print("+")
				}
				fmt.Print(cohort.GeneSymbols[g])
			}
			fmt.Println()
		}
	}
}

// runSupervised executes the durable supervised runner (internal/harness):
// generational checkpoints, per-partition retry and quarantine, walltime
// deadline, and SIGINT/SIGTERM checkpoint-and-exit.
func runSupervised(cohort *dataset.Cohort, opt cover.Options, dir string, resume bool, deadline time.Duration, jsonOut, verbose bool) {
	hopt := harness.Options{Cover: opt, Resume: resume, Deadline: deadline}
	if dir != "" {
		store, err := ckptstore.Open(dir, ckptstore.Options{})
		if err != nil {
			fatal(err)
		}
		hopt.Store = store
	} else if resume {
		fatal(fmt.Errorf("-resume requires -checkpoint-dir"))
	}
	if verbose {
		hopt.OnEvent = func(e harness.Event) {
			switch e.Kind {
			case harness.EventRetry:
				fmt.Fprintf(os.Stderr, "multihit: retrying partition [%d,%d) after attempt %d: %v\n",
					e.Partition.Lo, e.Partition.Hi, e.Attempt, e.Err)
			case harness.EventQuarantine:
				fmt.Fprintf(os.Stderr, "multihit: quarantined partition [%d,%d) after %d attempts: %v\n",
					e.Partition.Lo, e.Partition.Hi, e.Attempt, e.Err)
			case harness.EventCheckpoint:
				fmt.Fprintf(os.Stderr, "multihit: checkpointed %d steps as generation %d\n",
					e.Step+1, e.Generation)
			}
		}
	}
	ctx, stop := harness.SignalContext(context.Background())
	defer stop()
	start := time.Now()
	res, err := harness.Run(ctx, cohort.Tumor, cohort.Normal, hopt)
	if err != nil {
		// One-line diagnostic, non-zero exit — a failed resume (empty
		// store, corrupt generations, mismatched cohort) must never
		// silently restart the search from scratch.
		fatal(err)
	}
	if !jsonOut && res.Resumed {
		fmt.Printf("resumed from generation %d: %d steps replayed\n",
			res.ResumedGeneration, res.ReplayedSteps)
		if res.SkippedGenerations > 0 {
			fmt.Printf("skipped %d corrupt newer generation(s)\n", res.SkippedGenerations)
		}
	}

	out := core.FromCover(cohort, &cover.Result{
		Steps:       res.Steps,
		Covered:     res.Covered,
		Uncoverable: res.Uncoverable,
		Evaluated:   res.Evaluated,
		Elapsed:     res.Elapsed,
		Options:     res.Options,
	})

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			*core.Result
			Stop                string
			Partial             bool
			Unscanned           uint64               `json:",omitempty"`
			Quarantined         []harness.Quarantine `json:",omitempty"`
			Resumed             bool                 `json:",omitempty"`
			ResumedGeneration   uint64               `json:",omitempty"`
			ReplayedSteps       int                  `json:",omitempty"`
			SkippedGenerations  int                  `json:",omitempty"`
			PersistedGeneration uint64               `json:",omitempty"`
		}{out, res.Stop.String(), res.Partial, res.Unscanned, res.Quarantined,
			res.Resumed, res.ResumedGeneration, res.ReplayedSteps,
			res.SkippedGenerations, res.PersistedGeneration}); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("\n%d combinations in %s (%d combinations scored):\n",
			len(out.Combos), time.Since(start).Round(time.Millisecond), out.Evaluated)
		for i, combo := range out.Combos {
			fmt.Printf("  %2d. %s\n", i+1, combo)
		}
		fmt.Printf("\ncovered %d of %d tumor samples (%s); %d uncoverable\n",
			out.Covered, cohort.Nt(),
			stats.Percent(float64(out.Covered)/float64(cohort.Nt())), out.Uncoverable)
		if res.Partial {
			fmt.Printf("PARTIAL result (%s): the cover above is best-so-far, not final\n", res.Stop)
		}
		for _, q := range res.Quarantined {
			fmt.Printf("quarantined: step %d, λ-range [%d,%d) (%d combinations unscanned) after %d attempts: %s\n",
				q.Step, q.Lo, q.Hi, q.Size(), q.Attempts, q.LastError)
		}
		if res.PersistedGeneration > 0 {
			fmt.Printf("checkpoint: generation %d in %s\n", res.PersistedGeneration, dir)
		}
	}
	if code := service.StateForStop(res.Stop).ExitCode(); code != service.ExitOK {
		// Early-stopped runs exit with the shared early-stop code so batch
		// scripts can tell a walltime kill from natural completion and
		// schedule the next leg.
		os.Exit(code)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "multihit:", err)
	os.Exit(service.ExitFailure)
}
