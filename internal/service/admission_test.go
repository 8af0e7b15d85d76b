package service

import (
	"testing"

	"repro/internal/cover"
	"repro/internal/gpusim"
)

// estimateFor prices one synthetic cohort.
func estimateFor(t *testing.T, genes, hits int) Cost {
	t.Helper()
	spec := CohortSpec{Code: "BRCA", Genes: genes, Hits: hits, Seed: 1}
	cohort, err := spec.Generate()
	if err != nil {
		t.Fatalf("generating cohort: %v", err)
	}
	opt, err := cover.Options{Hits: hits}.Normalized()
	if err != nil {
		t.Fatalf("normalizing options: %v", err)
	}
	cost, err := EstimateCost(cohort, opt, gpusim.V100())
	if err != nil {
		t.Fatalf("EstimateCost: %v", err)
	}
	return cost
}

// TestEstimateCostScalesWithDomain: small pair jobs fit one device; a
// 4-hit job over a big universe demands many, priced by the same
// saturation model the scaling studies use.
func TestEstimateCostScalesWithDomain(t *testing.T) {
	small := estimateFor(t, 40, 2)
	if small.Threads != 40*39/2 {
		t.Fatalf("pair λ-domain = %d, want C(40,2)=780", small.Threads)
	}
	if small.GPUs != 1 {
		t.Fatalf("780-thread job demands %d GPUs, want 1", small.GPUs)
	}
	if small.DeviceSeconds <= 0 {
		t.Fatalf("device seconds = %v, want positive", small.DeviceSeconds)
	}

	big := estimateFor(t, 2000, 4)
	sat := uint64(gpusim.V100().SaturationThreads)
	wantGPUs := int((big.Threads + sat - 1) / sat)
	if big.GPUs != wantGPUs {
		t.Fatalf("big job demands %d GPUs, want ceil(%d/%d)=%d", big.GPUs, big.Threads, sat, wantGPUs)
	}
	if big.GPUs <= small.GPUs {
		t.Fatalf("4-hit/2000-gene job (%d GPUs) not pricier than pair job (%d)", big.GPUs, small.GPUs)
	}
}

// TestDevicesFor pins the ceiling semantics of the gpusim helper.
func TestDevicesFor(t *testing.T) {
	d := gpusim.V100()
	sat := uint64(d.SaturationThreads)
	cases := []struct {
		threads uint64
		want    int
	}{
		{0, 1},
		{1, 1},
		{sat, 1},
		{sat + 1, 2},
		{3 * sat, 3},
	}
	for _, tc := range cases {
		if got := d.DevicesFor(tc.threads); got != tc.want {
			t.Fatalf("DevicesFor(%d) = %d, want %d", tc.threads, got, tc.want)
		}
	}
}

// TestAdmissionBookkeeping: reserve/release arithmetic and the fits
// boundary.
func TestAdmissionBookkeeping(t *testing.T) {
	a := admission{capacity: 6}
	j1 := Cost{GPUs: 4}
	j2 := Cost{GPUs: 3}
	j3 := Cost{GPUs: 2}
	if !a.fits(j1) {
		t.Fatal("4 GPUs should fit an idle 6-GPU cluster")
	}
	a.reserve(j1)
	if a.fits(j2) {
		t.Fatal("3 more GPUs oversubscribe 6 with 4 in use")
	}
	if !a.fits(j3) {
		t.Fatal("2 more GPUs fit exactly")
	}
	a.reserve(j3)
	if a.inUse != 6 || a.running != 2 {
		t.Fatalf("inUse=%d running=%d, want 6/2", a.inUse, a.running)
	}
	a.release(j1)
	if !a.fits(j2) {
		t.Fatal("after release, 3 GPUs fit again")
	}
	a.release(j3)
	if a.inUse != 0 || a.running != 0 {
		t.Fatalf("inUse=%d running=%d after full release, want 0/0", a.inUse, a.running)
	}
}
