package dataset

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
)

// generateGolden maps "code/genes" to the FNV-64a hash of 30 seeded
// cohorts (generateHash), as generated before Generate's driver-pool and
// barcode paths were rewritten without maps and fmt. Generate's output
// must never drift: cached results and checkpoints key on it.
var generateGolden = map[string]uint64{
	"BRCA/24":  0xa544ef57eec7fc35,
	"BRCA/60":  0x9b0212ff0d647e5f,
	"BRCA/100": 0xd7db59adcb7094c8,
	"ACC/24":   0xd8b12a7c07cffbee,
	"ACC/60":   0x7835df8cccffdd49,
	"ACC/100":  0x4907fa3dfe14e4a0,
	"LGG/24":   0x99d55d8a6a2c9c4d,
	"LGG/60":   0xfd890a8b71beefd1,
	"LGG/100":  0xe40058571bf7ba49,
	"LUAD/24":  0xce8f8f26f2185ad5,
	"LUAD/60":  0xd3c13ba62320cbbf,
	"LUAD/100": 0x552bef545c4e5bd7,
	"TST/24":   0xad8223cb7be1bc88,
	"TST/60":   0x52eb340df790e763,
	"TST/100":  0xb6b9931a2f88047e,
}

// generateHash folds everything Generate emits for one cohort into h:
// the matrix fingerprints, barcodes, gene symbols, planted combinations
// and mutation records.
func generateHash(h hash.Hash64, c *Cohort) {
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	word(c.Tumor.Fingerprint())
	word(c.Normal.Fingerprint())
	for _, group := range [][]string{c.GeneSymbols, c.TumorBarcodes, c.NormalBarcodes} {
		word(uint64(len(group)))
		for _, s := range group {
			str(s)
		}
	}
	for _, combo := range c.Planted {
		word(uint64(len(combo)))
		for _, g := range combo {
			word(uint64(g))
		}
	}
	word(uint64(len(c.Mutations)))
	for _, m := range c.Mutations {
		str(m.GeneSymbol)
		str(m.SampleBarcode)
		word(uint64(m.Class))
		word(uint64(m.Position))
	}
}

// TestGenerateGolden pins Generate's output, bit for bit, over four
// registry cohorts and a ProfileAll cohort at three gene counts and 30
// seeds each.
func TestGenerateGolden(t *testing.T) {
	var specs []Spec
	for _, code := range []string{"BRCA", "ACC", "LGG", "LUAD"} {
		spec, err := ByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	all := small()
	all.ProfileAll = true
	specs = append(specs, all)
	for _, spec := range specs {
		for _, genes := range []int{24, 60, 100} {
			h := fnv.New64a()
			for seed := int64(1); seed <= 30; seed++ {
				c, err := Generate(spec.Scaled(genes), seed)
				if err != nil {
					t.Fatal(err)
				}
				generateHash(h, c)
			}
			key := fmt.Sprintf("%s/%d", spec.Code, genes)
			if got, want := h.Sum64(), generateGolden[key]; got != want {
				t.Errorf("Generate(%s) hashes to %#x, want %#x", key, got, want)
			}
		}
	}
}
