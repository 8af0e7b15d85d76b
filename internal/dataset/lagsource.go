package dataset

import (
	"math/rand"

	"repro/internal/bitmat"
)

// math/rand's default source (rngSource) is an additive lagged Fibonacci
// generator: past its first lagLen draws, draw n is
// y[n] = y[n−lagLen] + y[n−lagTap] (mod 2⁶⁴).
const (
	lagLen = 607
	lagTap = 273
)

// lagSource replays math/rand's rand.NewSource(seed) stream bit for bit,
// so the generator can draw its per-gene background numbers in a loop of
// its own (mark) instead of through rand.Rand, which costs two calls a
// draw, one through an interface. It is also a rand.Source64, so a
// rand.Rand over it draws exactly as one over rand.NewSource(seed).
//
// The stream is kept in draw order: buf holds lagLen consecutive draws,
// buf[next] is the next one served, and refill replaces the block by the
// lagLen draws that follow it. clean records that no draw of the block
// rounds to 1 as a float, so mark can pair draws with genes one to one.
type lagSource struct {
	buf   [lagLen]uint64
	next  int
	clean bool
}

func newLagSource(seed int64) *lagSource {
	s := new(lagSource)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at rand.NewSource(seed)'s first draw: the
// first block is math/rand's own first lagLen draws.
func (s *lagSource) Seed(seed int64) {
	std := rand.NewSource(seed).(rand.Source64)
	var top uint64
	for k := range s.buf {
		s.buf[k] = std.Uint64()
		top = max(top, s.buf[k]<<1)
	}
	s.next, s.clean = 0, top>>1 < kept
}

// refill steps the block lagLen draws on. New draw k is old draw k plus
// the draw lagTap before it, which is old draw k+lagLen−lagTap for
// k < lagTap and new draw k−lagTap from there on. top is the largest
// draw's low 63 bits, shifted up by one.
func (s *lagSource) refill() {
	var top uint64
	lo, hi := s.buf[:lagTap], s.buf[lagLen-lagTap:]
	for k := range lo {
		lo[k] += hi[k]
		top = max(top, lo[k]<<1)
	}
	for k := lagTap; k < lagLen; k++ {
		s.buf[k] += s.buf[k-lagTap]
		top = max(top, s.buf[k]<<1)
	}
	s.next, s.clean = 0, top>>1 < kept
}

// Uint64 returns the next draw, all 64 bits.
func (s *lagSource) Uint64() uint64 {
	if s.next == lagLen {
		s.refill()
	}
	x := s.buf[s.next]
	s.next++
	return x
}

// Int63 returns the next draw's low 63 bits, as rngSource.Int63 does.
func (s *lagSource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// below returns the threshold t that turns a Float64 comparison into an
// integer one: for a draw x that Float64 keeps (x < below(1)), the float
// it makes, float64(x) / 2⁶³, is below p exactly when x < t. The
// conversion is monotone in x, so t is found by bisection through the
// conversion itself.
func below(p float64) uint64 {
	if !(p > 0) {
		return 0 // no float is below p, NaN included
	}
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// kept is below(1): a draw at or above it makes the float 1, which
// Float64 redraws.
var kept = below(1)

// mark draws sample col's background mutations into m: for each gene
// g < len(thr) it draws what rand.Rand.Float64 would, skipping each draw
// Float64 redraws, and sets bit (g, col) when the float is below the rate
// thr[g] stands for (thr[g] = below(rate)). The bit is ORed straight into
// the matrix word.
func (s *lagSource) mark(thr []uint64, m *bitmat.Matrix, col int) {
	words, stride, bit := m.Column(col)
	w := 0
	for len(thr) > 0 {
		if s.next == lagLen {
			s.refill()
		}
		blk := s.buf[s.next:]
		if s.clean {
			n := min(len(blk), len(thr))
			t := thr[:n]
			for k, y := range blk[:n] {
				if y&^(1<<63) < t[k] {
					words[w] |= bit
				}
				w += stride
			}
			thr, s.next = thr[n:], s.next+n
			continue
		}
		for _, y := range blk {
			s.next++
			if x := y &^ (1 << 63); x < kept {
				if x < thr[0] {
					words[w] |= bit
				}
				w += stride
				if thr = thr[1:]; len(thr) == 0 {
					break
				}
			}
		}
	}
}
