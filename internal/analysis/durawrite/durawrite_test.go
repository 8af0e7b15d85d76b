package durawrite_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/durawrite"
)

func TestDurawrite(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), durawrite.Analyzer,
		"ckptstore", "multihit", "service")
}
