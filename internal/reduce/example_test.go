package reduce_test

import (
	"fmt"

	"repro/internal/reduce"
)

// Better is the one order of every reduction stage: higher F wins, and a
// tie on F breaks toward the smaller gene tuple, so any reduction topology
// returns the same record.
func ExampleCombo_Better() {
	combos := []reduce.Combo{
		reduce.NewCombo(0.71, 1, 2, 3, 4),
		reduce.NewCombo(0.93, 5, 6, 7, 8),
		reduce.NewCombo(0.88, 0, 9, 10, 11),
		reduce.NewCombo(0.93, 2, 6, 7, 8), // ties on F; smaller tuple wins
	}
	best := reduce.None
	for _, c := range combos {
		if c.Better(best) {
			best = c
		}
	}
	fmt.Println(best)
	// Output:
	// [2 6 7 8] F=0.9300
}
