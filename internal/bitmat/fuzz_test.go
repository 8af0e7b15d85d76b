package bitmat

import "testing"

// FuzzSelectRows exercises kernelization's row selection: for an
// arbitrary matrix and keep list, SelectRows must copy exactly the kept
// rows in order — selected row i bit-identical to original row keep[i] —
// so a winner found on the kernel maps back through keep without changing
// a single bit. The keep list is derived from fuzz bytes the way
// kernelize builds it: ascending, duplicate-free, possibly empty.
func FuzzSelectRows(f *testing.F) {
	f.Add(uint16(7), uint16(70), []byte{0b1010101})
	f.Add(uint16(1), uint16(1), []byte{1})
	f.Add(uint16(14), uint16(130), []byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, rawG, rawS uint16, pick []byte) {
		genes := 1 + int(rawG)%32
		samples := 1 + int(rawS)%200
		m := New(genes, samples)
		// Deterministic fill derived from the inputs.
		for g := 0; g < genes; g++ {
			for s := g % 7; s < samples; s += 1 + (g+s)%5 {
				m.Set(g, s)
			}
		}
		var keep []int
		for g := 0; g < genes; g++ {
			if len(pick) > 0 && pick[g%len(pick)]&(1<<(g%8)) != 0 {
				keep = append(keep, g)
			}
		}
		out := m.SelectRows(keep)
		if out.Genes() != len(keep) || out.Samples() != samples {
			t.Fatalf("compacted to %d×%d, want %d×%d",
				out.Genes(), out.Samples(), len(keep), samples)
		}
		for i, g := range keep {
			for s := 0; s < samples; s++ {
				if out.Get(i, s) != m.Get(g, s) {
					t.Fatalf("row %d (original %d) differs at sample %d", i, g, s)
				}
			}
			if out.RowPopCount(i) != m.RowPopCount(g) {
				t.Fatalf("row %d popcount drifted", i)
			}
		}
		// The remap is per-row: compacting twice through a sub-keep equals
		// compacting once through the composed index list.
		if len(keep) > 1 {
			sub := []int{0, len(keep) - 1}
			twice := out.SelectRows(sub)
			composed := m.SelectRows([]int{keep[0], keep[len(keep)-1]})
			for i := 0; i < 2; i++ {
				for s := 0; s < samples; s++ {
					if twice.Get(i, s) != composed.Get(i, s) {
						t.Fatalf("composition broken at row %d sample %d", i, s)
					}
				}
			}
		}
	})
}
