package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/combinat"
	"repro/internal/harness"
	"repro/internal/service"
)

// specKey identifies a job spec by what determines its result: the
// cohort and the engine options (with the worker count the daemon
// resolved, which fixes the partition plan). Tenant and priority are
// left out, so a resubmission shares its original's key.
func specKey(s service.JobSpec) string {
	b, err := json.Marshal(struct {
		C service.CohortSpec
		O service.OptionsSpec
	}{s.Cohort, s.Options})
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return string(b)
}

// checkJob is the correctness gate for one daemon result: it must be a
// complete, non-partial success equal to the in-process harness.Run
// reference of the same spec, bit for bit, and its work counters must
// account for every combination of every greedy pass.
func checkJob(st *service.JobStatus, ref *harness.Result) error {
	if st.State != service.StateSucceeded.String() {
		return fmt.Errorf("job %s ended %s", st.ID, st.State)
	}
	got := st.Result
	if got == nil {
		return fmt.Errorf("job %s succeeded without a result", st.ID)
	}
	if got.Error != "" || got.Partial || got.Unscanned != 0 || got.Stop != harness.StopCompleted.String() {
		return fmt.Errorf("job %s result is not a complete scan (stop %q, partial %v, unscanned %d, error %q)",
			st.ID, got.Stop, got.Partial, got.Unscanned, got.Error)
	}
	if len(got.Combos) != len(ref.Steps) {
		return fmt.Errorf("job %s: %d combos, reference has %d", st.ID, len(got.Combos), len(ref.Steps))
	}
	for i, c := range got.Combos {
		want := ref.Steps[i]
		ids := want.Combo.GeneIDs()
		if fmt.Sprint(c.GeneIDs) != fmt.Sprint(ids) {
			return fmt.Errorf("job %s combo %d: genes %v, reference %v", st.ID, i, c.GeneIDs, ids)
		}
		if math.Float64bits(c.F) != math.Float64bits(want.Combo.F) {
			return fmt.Errorf("job %s combo %d: F %v, reference %v", st.ID, i, c.F, want.Combo.F)
		}
		if c.NewlyCovered != want.NewlyCovered {
			return fmt.Errorf("job %s combo %d: newly covered %d, reference %d", st.ID, i, c.NewlyCovered, want.NewlyCovered)
		}
	}
	if got.Covered != ref.Covered || got.Uncoverable != ref.Uncoverable {
		return fmt.Errorf("job %s: covered/uncoverable %d/%d, reference %d/%d",
			st.ID, got.Covered, got.Uncoverable, ref.Covered, ref.Uncoverable)
	}
	if got.Evaluated != ref.Evaluated || got.Pruned != ref.Pruned {
		return fmt.Errorf("job %s: evaluated/pruned %d/%d, reference %d/%d",
			st.ID, got.Evaluated, got.Pruned, ref.Evaluated, ref.Pruned)
	}
	return checkEnumeration(st, got)
}

// checkEnumeration requires Evaluated+Pruned to be a whole number of
// C(G,h) enumeration passes: one per chosen combination, plus the final
// pass that found nothing more to cover when the loop ended that way.
func checkEnumeration(st *service.JobStatus, got *service.JobResult) error {
	per, err := passSize(st.Spec)
	if err != nil {
		return fmt.Errorf("job %s: %w", st.ID, err)
	}
	scanned := got.Evaluated + got.Pruned
	passes := scanned / per
	steps := uint64(len(got.Combos))
	if scanned%per != 0 || passes < steps || passes > steps+1 {
		return fmt.Errorf("job %s: evaluated+pruned = %d is not %d or %d passes of %d combinations",
			st.ID, scanned, steps, steps+1, per)
	}
	return nil
}

// passSize is C(G,h), the combinations one greedy pass enumerates.
func passSize(spec service.JobSpec) (uint64, error) {
	g, h := spec.Cohort.Genes, spec.Cohort.Hits
	per, ok := combinat.Binomial(uint64(g), uint64(h))
	if !ok || per == 0 {
		return 0, fmt.Errorf("C(%d,%d) out of range", g, h)
	}
	return per, nil
}
