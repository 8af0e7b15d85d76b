package reduce

import "sort"

// TopK accumulates the K best combinations under the same deterministic
// total order as the max reduction. Exploratory analyses often want the
// leading candidates per enumeration pass, not only the argmax the cover
// loop consumes; TopK generalizes every reduction stage to carry K
// records instead of one (at K = 1 it is the running maximum).
//
// The accumulator is a bounded insertion buffer: Offer is O(K) in the
// worst case but O(1) for the common below-threshold case, which is the
// right trade when K is small against the number of records offered.
type TopK struct {
	k     int
	items []Combo
}

// NewTopK returns an accumulator holding the best k records.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("reduce: TopK needs k ≥ 1")
	}
	return &TopK{k: k}
}

// Offer considers one combination.
func (t *TopK) Offer(c Combo) {
	if c == None {
		return
	}
	n := len(t.items)
	if n == t.k && !c.Better(t.items[n-1]) {
		return // below the current cutoff
	}
	// Find insertion point (descending order, Better first).
	i := sort.Search(n, func(i int) bool { return c.Better(t.items[i]) })
	if n < t.k {
		t.items = append(t.items, Combo{})
	} else {
		n-- // drop the last
	}
	copy(t.items[i+1:], t.items[i:n])
	t.items[i] = c
}

// Merge folds another accumulator's contents in — the cross-worker (and
// cross-rank) combine step.
func (t *TopK) Merge(o *TopK) {
	for _, c := range o.items {
		t.Offer(c)
	}
}

// Items returns the accumulated records, best first. The slice aliases the
// accumulator.
func (t *TopK) Items() []Combo { return t.items }

// K returns the accumulator's capacity.
func (t *TopK) K() int { return t.k }
