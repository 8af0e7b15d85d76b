package cover

import (
	"testing"

	"repro/internal/dataset"
)

// benchSparseEngines times FindBest under the dense and sparse engines on
// one seeded cohort — the per-cell guard behind the BENCH_9.json sweep
// (cmd/benchreport -exp sparse runs the full table with the Auto side).
func benchSparseEngines(b *testing.B, code string, genes, hits int) {
	spec, err := dataset.ByCode(code)
	if err != nil {
		b.Fatal(err)
	}
	spec.Hits = hits
	spec = spec.Scaled(genes)
	c, err := dataset.Generate(spec, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range []Engine{EngineDense, EngineSparse} {
		b.Run(eng.String(), func(b *testing.B) {
			opt := Options{Hits: hits, Engine: eng, Workers: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := FindBest(c.Tumor, c.Normal, nil, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparseEngine pins one cell from each side of the occupancy
// crossover (see sparseCrossover): ACC 2x1 sits at ~1.4 set samples per
// row where the merge kernels win, BRCA 2x1 at ~16 where the dense word
// fold wins, and LGG 3x1 at ~6.5 where prefix reuse makes the sparse
// cascade the headline case. Both engines must stay allocation-free per
// op (allocs land in per-pass setup, pinned by allocfree as well).
func BenchmarkSparseEngine(b *testing.B) {
	b.Run("ACC240h3_2x1", func(b *testing.B) { benchSparseEngines(b, "ACC", 240, 3) })
	b.Run("BRCA240h3_2x1", func(b *testing.B) { benchSparseEngines(b, "BRCA", 240, 3) })
	b.Run("LGG200h4_3x1", func(b *testing.B) { benchSparseEngines(b, "LGG", 200, 4) })
}
