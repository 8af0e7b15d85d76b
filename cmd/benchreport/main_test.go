package main

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// quickCfg shrinks every experiment for test runs.
func quickCfg() config { return config{Genes: 40, Seed: 1, Quick: true} }

func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-scale; skipped in -short")
	}
	for _, e := range experiments() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			out, err := e.run(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatalf("%s produced no output", e.name)
			}
		})
	}
}

// TestMemOptsDoNotChangeResults pins the three Fig. 5 loops to the
// engine: on a BRCA cohort at G=40, h=3, each returns cover.FindBest's
// NoPrune winner, gene ids and F bits.
func TestMemOptsDoNotChangeResults(t *testing.T) {
	spec := dataset.BRCA().Scaled(40)
	spec.Hits = 3
	cohort, err := dataset.Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fig5Check(cohort.Tumor, cohort.Normal); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryPlanPaperNumbers pins the Sec. III-E arithmetic: one record
// per 3x1 thread is C(19411, 3) ≈ 1.22e12 entries, 24.38 TB at 20 bytes
// each (the paper rounds to 24.34 TB); the in-block reduction at block
// size 512 leaves 47.61 GB (paper: 47.5 GB); rank 0 receives 20 bytes per
// rank.
func TestMemoryPlanPaperNumbers(t *testing.T) {
	out, err := expMemory(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1218780100265  24.38 TB", "2380429884     47.61 GB", "1000           20.00 kB"} {
		if !strings.Contains(out, want) {
			t.Errorf("memory plan lacks %q:\n%s", want, out)
		}
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments() {
		if seen[e.name] {
			t.Fatalf("duplicate experiment name %q", e.name)
		}
		seen[e.name] = true
		if e.about == "" {
			t.Fatalf("experiment %q has no description", e.name)
		}
	}
}

func TestFig4aContainsEfficiencyBand(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	out, err := expFig4a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1000-node efficiency") {
		t.Fatalf("fig4a output missing the headline line:\n%s", out)
	}
}

func TestFig9ReportsAllEleven(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	out, err := expFig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []string{"ACC", "BLCA", "COAD", "ESCA", "GBM",
		"HNSC", "KIRC", "LGG", "LIHC", "LUAD", "STAD"} {
		if !strings.Contains(out, code) {
			t.Errorf("fig9 output missing %s", code)
		}
	}
}

func TestFig10NamesTheTopCombination(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	out, err := expFig10(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IDH1+MUC6+PABPC3+TAS2R46") {
		t.Fatalf("fig10 did not surface the paper's top LGG combination:\n%s", out)
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtDur(90 * 86400); got != "90.0 days" {
		t.Errorf("fmtDur(90d) = %q", got)
	}
	if got := fmtDur(7200.1); got != "2.0 h" {
		t.Errorf("fmtDur(2h) = %q", got)
	}
	if got := fmtDur(300); got != "5.0 min" {
		t.Errorf("fmtDur(5min) = %q", got)
	}
	if got := fmtDur(30); got != "30 s" {
		t.Errorf("fmtDur(30s) = %q", got)
	}
	if got := fmtBytes(24_380_000_000_000); got != "24.38 TB" {
		t.Errorf("fmtBytes(24TB) = %q", got)
	}
	if got := fmtBytes(500); got != "500 B" {
		t.Errorf("fmtBytes(500) = %q", got)
	}
}
