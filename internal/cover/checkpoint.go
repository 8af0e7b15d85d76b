package cover

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitmat"
	"repro/internal/reduce"
)

// Typed checkpoint-rejection errors. Callers (cmd/multihit, the harness)
// match these to turn a bad resume into a one-line diagnostic instead of
// silently starting from scratch.
var (
	// ErrCheckpointVersion means the checkpoint's wire format is not the
	// one this binary writes.
	ErrCheckpointVersion = errors.New("cover: checkpoint version mismatch")
	// ErrFingerprintMismatch means the checkpoint was taken from
	// different input matrices.
	ErrFingerprintMismatch = errors.New("cover: checkpoint fingerprint mismatch")
)

// maxCheckpointBytes bounds ReadCheckpoint's input: a checkpoint is a
// few bytes per greedy step, so 64 MiB is orders of magnitude above any
// legitimate run and cheap insurance against a corrupt or hostile file
// streaming unbounded JSON.
const maxCheckpointBytes = 64 << 20

// A Checkpoint captures a discovery run's progress so it can resume in a
// later job — the practical answer to batch-system walltime limits (the
// paper notes Summit capped sub-100-node jobs at two hours, Sec. IV-A).
// It records the combinations chosen so far plus a fingerprint binding it
// to the exact input matrices; Resume replays the recorded exclusions in
// O(steps) matrix operations and continues the greedy loop, skipping every
// already-completed enumeration pass.
//
// A checkpoint binds to the ORIGINAL matrices in both sample-axis modes:
// a BitSplice run's spliced matrix is derived state, which a continued
// BitSplice leg rebuilds by splicing the replayed steps' samples out.
type Checkpoint struct {
	// Version guards the wire format.
	Version int `json:"version"`
	// Hits is the combination size of the interrupted run.
	Hits int `json:"hits"`
	// Alpha is the F-weight penalty in effect.
	Alpha float64 `json:"alpha"`
	// TumorFingerprint and NormalFingerprint bind the checkpoint to its
	// input matrices.
	TumorFingerprint  uint64 `json:"tumor_fingerprint"`
	NormalFingerprint uint64 `json:"normal_fingerprint"`
	// Combos are the chosen combinations in greedy order; NewlyCovered
	// records each combination's cover count for integrity checking.
	Combos       [][]int `json:"combos"`
	NewlyCovered []int   `json:"newly_covered"`
	// Scores records each combination's F value so a resumed leg reports
	// the replayed steps bit-identically. Older checkpoints (same
	// version) omit it; replay then leaves the replayed scores zero.
	Scores []float64 `json:"scores,omitempty"`
	// Evaluated carries the cumulative count of combinations scored;
	// Pruned the cumulative count skipped by bound-and-prune. Older
	// checkpoints (same version) simply carry zero Pruned.
	Evaluated uint64 `json:"evaluated"`
	Pruned    uint64 `json:"pruned,omitempty"`
	// Kernelize records that the run scanned a kernelized instance
	// (Options.Kernelize); KernelFingerprint identifies the exact
	// reduction so a resumed leg can verify it rebuilt the same kernel
	// before continuing bit-identically. Both are zero for unkernelized
	// runs (and absent from their JSON).
	Kernelize         bool   `json:"kernelize,omitempty"`
	KernelFingerprint uint64 `json:"kernel_fingerprint,omitempty"`
}

// checkpointVersion is the current wire format.
const checkpointVersion = 1

// ToCheckpoint converts a (typically MaxIterations-bounded) run's result
// into a resumable checkpoint for the given input matrices.
func (r *Result) ToCheckpoint(tumor, normal *bitmat.Matrix) *Checkpoint {
	return r.CheckpointFor(tumor.Fingerprint(), normal.Fingerprint())
}

// CheckpointFor is ToCheckpoint given the input matrices' fingerprints
// (bitmat.Matrix.Fingerprint), for callers that checkpoint one run
// repeatedly and hash its inputs once.
func (r *Result) CheckpointFor(tumorFP, normalFP uint64) *Checkpoint {
	cp := &Checkpoint{
		Version:           checkpointVersion,
		Hits:              r.Options.Hits,
		Alpha:             r.Options.Alpha,
		TumorFingerprint:  tumorFP,
		NormalFingerprint: normalFP,
		Evaluated:         r.Evaluated,
		Pruned:            r.Pruned,
		Kernelize:         r.Options.Kernelize,
		KernelFingerprint: r.KernelFingerprint,
	}
	for _, s := range r.Steps {
		cp.Combos = append(cp.Combos, s.Combo.GeneIDs())
		cp.NewlyCovered = append(cp.NewlyCovered, s.NewlyCovered)
		cp.Scores = append(cp.Scores, s.Combo.F)
	}
	return cp
}

// Write serializes the checkpoint as JSON.
func (cp *Checkpoint) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(cp)
}

// ReadCheckpoint deserializes a checkpoint written by Write. The read is
// bounded by maxCheckpointBytes; a version mismatch wraps
// ErrCheckpointVersion, and Combos/NewlyCovered must be the same length.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(io.LimitReader(r, maxCheckpointBytes)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("cover: reading checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("cover: checkpoint version %d, want %d: %w",
			cp.Version, checkpointVersion, ErrCheckpointVersion)
	}
	if len(cp.Combos) != len(cp.NewlyCovered) {
		return nil, fmt.Errorf("cover: checkpoint has %d combos but %d cover counts",
			len(cp.Combos), len(cp.NewlyCovered))
	}
	if len(cp.Scores) != 0 && len(cp.Scores) != len(cp.Combos) {
		return nil, fmt.Errorf("cover: checkpoint has %d combos but %d scores",
			len(cp.Combos), len(cp.Scores))
	}
	return &cp, nil
}

// Resume continues an interrupted run from a checkpoint: the recorded
// combinations are re-applied (and re-verified) without re-enumerating
// their iterations, then the greedy loop continues to completion (or to
// opt.MaxIterations, counted from the beginning, for another bounded leg).
// The matrices must be the ones the checkpoint was taken from. Either
// sample-axis mode may continue a checkpoint from either; a BitSplice leg
// continuing a BitSplice run equals the uninterrupted run, counts
// included. Resume is Greedy from cp with the default scanner and no
// commit.
func Resume(tumor, normal *bitmat.Matrix, opt Options, cp *Checkpoint) (*Result, error) {
	res, err := Greedy(context.Background(), tumor, normal, opt, cp, Hooks{})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// replayCombo rebuilds a Combo record from gene ids; the F score of a
// replayed step is not recomputed (it scored against a historical active
// mask) and is reported as 0.
func replayCombo(ids []int) reduce.Combo {
	c := reduce.Combo{Genes: reduce.None.Genes}
	for i, g := range ids {
		c.Genes[i] = int32(g)
	}
	return c
}
