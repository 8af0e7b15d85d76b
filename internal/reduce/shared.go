package reduce

import (
	"math"
	"sync"
	"sync/atomic"
)

// SharedBest is a process-wide incumbent for bound-and-prune enumeration:
// the best combination any worker has scored so far, readable during the
// scan. It leaves the reduction as it is — every partition still keeps
// its own running maximum and the partition winners are still folded the
// same way — but additionally publishes a monotonically rising F bound that the
// kernels consult before descending into an inner loop. Because the F
// score is monotone under AND (folding more gene rows can only shrink TP
// and normal hits), a prefix whose upper bound falls strictly below the
// incumbent cannot contain the argmax and may be skipped wholesale.
//
// The bound is stored as a total-order-preserving bit cast of the float64
// (see sortKey), so raising it is a single atomic max and reading it is a
// single atomic load — the fast path adds one load per prune check and no
// locking. The full Combo payload (needed for the tie-break) sits behind a
// mutex that is only taken when a worker actually improves on the bound,
// which happens O(log) times per scan, not O(combinations).
//
// Determinism: pruning consults the bound with a STRICT comparison
// (ShouldPrune), so a subtree is skipped only when every combination in it
// scores strictly below the incumbent's F. Equal-F combinations are never
// skipped — they must still be enumerated so the lexicographic tie-break
// of Better resolves identically however the scan is partitioned or
// interleaved. The shared bound therefore changes how much work a scan
// does, never which combination it returns.
type SharedBest struct {
	// bound is sortKey(best.F): the incumbent's F in a monotonically
	// comparable uint64 encoding.
	bound atomic.Uint64
	mu    sync.Mutex
	best  Combo
}

// sortKey maps a float64 to a uint64 whose unsigned order matches the
// float's numeric order (for all non-NaN values): non-negative floats get
// the sign bit set, negative floats are bitwise inverted. F scores are
// finite — None's is -1 — so the encoding is total here.
func sortKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// NewSharedBest returns an incumbent holding None (F = -1), which no real
// score falls below — the first combination offered always lands.
func NewSharedBest() *SharedBest {
	return NewSharedBestFrom(None)
}

// NewSharedBestFrom returns an incumbent already holding seed, so the
// first prune checks run against seed's F instead of None's. seed must be
// a combination of the scanned domain scored exactly as the kernels score
// it: then the bound never exceeds the domain's true maximum and strict
// pruning still cannot skip the winner.
func NewSharedBestFrom(seed Combo) *SharedBest {
	s := &SharedBest{best: seed}
	s.bound.Store(sortKey(seed.F))
	return s
}

// Offer raises the incumbent to c if c wins under Better. Calls that
// cannot win on F alone return after one atomic load; ties on F take the
// lock so the lexicographic tie-break is applied under mutual exclusion.
func (s *SharedBest) Offer(c Combo) {
	if sortKey(c.F) < s.bound.Load() {
		return
	}
	s.mu.Lock()
	if c.Better(s.best) {
		s.best = c
		s.bound.Store(sortKey(c.F))
	}
	s.mu.Unlock()
}

// ShouldPrune reports whether a subtree whose scores are all ≤ ub is
// strictly dominated by the incumbent. The comparison is strict: a
// subtree that could tie the incumbent's F must still be enumerated,
// because one of its combinations might win the lexicographic tie-break.
func (s *SharedBest) ShouldPrune(ub float64) bool {
	return sortKey(ub) < s.bound.Load()
}

// BoundKey returns a snapshot of the incumbent bound in its sortKey
// encoding, for callers that take many prune decisions against one
// consistent bound (the sparse engine's merge-threshold search): compare
// SortKey(ub) < BoundKey() — exactly ShouldPrune against the snapshot —
// without an atomic load per probe. The bound only rises, so a snapshot
// is always a valid (possibly slightly stale) incumbent: staleness can
// only under-prune, never skip a winner.
func (s *SharedBest) BoundKey() uint64 {
	return s.bound.Load()
}

// SortKey exposes the order-preserving float encoding BoundKey uses.
func SortKey(f float64) uint64 { return sortKey(f) }

// Best returns the current incumbent.
func (s *SharedBest) Best() Combo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best
}
