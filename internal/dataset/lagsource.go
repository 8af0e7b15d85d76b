package dataset

import "math/rand"

// math/rand's default source (rngSource) is an additive lagged Fibonacci
// generator over a table of lagLen 64-bit words: each draw steps two
// indexes down the table, tap and feed, lagTap apart, and replaces
// vec[feed] with vec[feed] + vec[tap], which is also the draw.
const (
	lagLen = 607
	lagTap = 273
)

// lagSource replays math/rand's rand.NewSource(seed) stream bit for bit,
// so the generator can draw its per-gene background numbers in a loop of
// its own (draws) instead of through rand.Rand, which costs two calls a
// draw, one through an interface. It is also a rand.Source64, so a
// rand.Rand over it draws exactly as one over rand.NewSource(seed).
//
// Seed fills the table with the first lagLen draws of math/rand's own
// source. Those draws write each slot exactly once, so afterwards the
// table is math/rand's state, both indexes are back where they started,
// and each of those draws sits in the slot it wrote: the first primed
// draws are served from there before the recurrence takes over.
type lagSource struct {
	vec       [lagLen]uint64
	tap, feed int
	primed    int
}

func newLagSource(seed int64) *lagSource {
	s := new(lagSource)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at rand.NewSource(seed)'s first draw.
func (s *lagSource) Seed(seed int64) {
	std := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed, s.primed = 0, lagLen-lagTap, lagLen
	// Draw k, counted from 1, writes the slot k below feed's start.
	for k := 1; k <= lagLen; k++ {
		s.vec[(s.feed-k+lagLen)%lagLen] = std.Uint64()
	}
}

// Uint64 returns the next draw, all 64 bits.
func (s *lagSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += lagLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += lagLen
	}
	if s.primed > 0 {
		s.primed--
		return s.vec[s.feed]
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
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

// draws fills dst with the next len(dst) draws Float64 keeps, as the low
// 63 bits of each; compare them against below(p) for Float64() < p. The
// indexes stay in registers, and past the first lagLen draws the table is
// stepped in runs that need no wrap check.
func (s *lagSource) draws(dst []uint64) {
	i := 0
	for ; i < len(dst) && s.primed > 0; i++ {
		if dst[i] = uint64(s.Int63()); dst[i] >= kept {
			i--
		}
	}
	tap, feed := s.tap, s.feed
	for i < len(dst) {
		if tap == 0 {
			tap = lagLen
		}
		if feed == 0 {
			feed = lagLen
		}
		for range min(tap, feed, len(dst)-i) {
			tap--
			feed--
			x := s.vec[feed] + s.vec[tap]
			s.vec[feed] = x
			dst[i] = x &^ (1 << 63)
			if dst[i] < kept {
				i++
			}
		}
	}
	s.tap, s.feed = tap, feed
}
