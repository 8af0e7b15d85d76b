package cover

import (
	"testing"

	"repro/internal/dataset"
)

// BenchmarkSupportBRCA times a whole greedy run whose every pass the
// support decides: BRCA at G = 100, h = 4, 10 steps on 2 workers, the
// engine half of a brca4_dense job. The first pass builds the carried
// support (6,114 h-subsets into 4,255 records on seed 1) and the other
// nine decide from it, so B/op is mostly the support state's size.
func BenchmarkSupportBRCA(b *testing.B) {
	spec, err := dataset.ByCode("BRCA")
	if err != nil {
		b.Fatal(err)
	}
	c, err := dataset.Generate(spec.Scaled(100), 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Hits: 4, MaxIterations: 10, Workers: 2}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(c.Tumor, c.Normal, opt); err != nil {
			b.Fatal(err)
		}
	}
}
