// Package cover is a fixture for the kernel-side reporting: entry points
// are the ^kernel functions, and the imported bitmat fixture supplies the
// cross-package Allocates facts.
package cover

import (
	"fmt"
	"math"
	"sort"

	"bitmat"
)

// kernelClean calls only vetted and allowlisted callees: no findings.
func kernelClean(dst, a, b []uint64) float64 {
	bitmat.AndWords(dst, a, b)
	return math.Sqrt(float64(len(dst)))
}

// kernelGrow reaches the injected append through the imported fact.
func kernelGrow(dst []uint64, w uint64) int {
	buf := bitmat.Grow(dst, w) // want `calls bitmat\.Grow, which allocates: append`
	return len(buf)
}

// kernelMake allocates directly.
func kernelMake(n int) []uint64 {
	buf := make([]uint64, n) // want `make on the kernel scan path`
	return buf
}

// kernelSort calls into a stdlib package outside the allowlist.
func kernelSort(xs []int) {
	sort.Ints(xs) // want `calls sort\.Ints, which is outside the alloc-free allowlist`
}

// kernelGuard formats only on the dying path: panic arguments are cold and
// exempt.
func kernelGuard(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("negative count %d", n))
	}
	return n
}

// kernelScratch carries a justified one-time allocation.
func kernelScratch(n int) []uint64 {
	return make([]uint64, n) //lint:allow allocfree one-time scratch setup outside the per-candidate loop
}

// setup allocates freely: not an entry point, so it is never reported here
// (its Allocates fact is still exported for dependent packages).
func setup(n int) []uint64 {
	return make([]uint64, n)
}

// supportState stands in for the greedy loop's carried support: its
// decide and remove methods are entry points, its build is setup.
type supportState struct {
	tp []int32
}

// decide only reads the state: no findings.
func (st *supportState) decide() int {
	best := 0
	for _, tp := range st.tp {
		best = max(best, int(tp))
	}
	return best
}

// remove grows the state on the per-pass path.
func (st *supportState) remove(c int) {
	st.tp = append(st.tp, int32(c)) // want `append on the kernel scan path`
}

// build is the one-time setup: it allocates freely and is never reported.
func (st *supportState) build(n int) {
	st.tp = make([]int32, n)
}

// otherState has a decide method too, but it is not the support state's.
type otherState struct{}

func (otherState) decide(n int) []int { return make([]int, n) }
