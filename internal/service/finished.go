package service

// What a finished job keeps (docs/SERVICE.md §7). A daemon keeps every
// job it has finished for its whole life, so the terminal transition
// shrinks the job to its answer: the result becomes flat arrays
// (finalResult) whose symbols are ids into one daemon-wide intern table,
// the event history becomes one encoded byte slice, and the references
// only a running job needs are released. The API rebuilds a JobResult
// and decodes the frames when it reads them; the bytes it answers with
// are the ones the full forms encode to.

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"sync"
)

// internTable maps the short strings finished jobs repeat (gene symbols,
// stop reasons, event types and states) to dense ids. Append-only: a
// name, once interned, keeps its id for the process's life, so the
// daemons of one process (tests open several) can share it.
type internTable struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	names []string
}

// words is the daemon-wide intern table.
var words = &internTable{ids: map[string]uint32{}}

// id interns s and returns its id. The table keeps a copy of s, so a
// substring does not keep its parent string alive.
func (t *internTable) id(s string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	s = strings.Clone(s)
	id = uint32(len(t.names))
	t.names = append(t.names, s)
	t.ids[s] = id
	return id
}

// intern returns the table's copy of s.
func (t *internTable) intern(s string) string {
	if s == "" {
		return ""
	}
	id := t.id(s)
	return t.snapshot()[id]
}

// snapshot returns the names interned so far. Names are never rewritten,
// so the caller may index the snapshot without the lock.
func (t *internTable) snapshot() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.names
}

// finalResult is a terminal job's result as the daemon keeps it. The
// result cache holds the same form, and a cache hit shares its arrays.
type finalResult struct {
	covered, uncoverable         int
	evaluated, pruned, unscanned uint64
	partial                      bool
	stop                         string // interned
	elapsedSec                   float64
	tumorFP, normalFP, kernelFP  uint64
	cachedFrom, err              string

	// Combination i has genes[i*width:(i+1)*width], F f[i] and
	// newly[i] newly covered samples. symbols runs parallel to genes:
	// slot k holds 1 + the intern id of the combination's k-th symbol, or
	// 0 past its last one. symbols is nil when no combination names one.
	width   int
	genes   []int32
	symbols []uint32
	f       []float64
	newly   []int32
	// combos holds verbatim the combinations the arrays cannot, which a
	// result record read from disk may carry: widths that differ, more
	// symbols than genes, values past int32, or an empty non-nil list.
	combos []ComboResult
}

// compactResult builds the kept form of r; nil stays nil.
func compactResult(r *JobResult) *finalResult {
	if r == nil {
		return nil
	}
	c := &finalResult{
		covered:     r.Covered,
		uncoverable: r.Uncoverable,
		evaluated:   r.Evaluated,
		pruned:      r.Pruned,
		unscanned:   r.Unscanned,
		partial:     r.Partial,
		stop:        words.intern(r.Stop),
		elapsedSec:  r.ElapsedSec,
		tumorFP:     r.TumorFingerprint,
		normalFP:    r.NormalFingerprint,
		kernelFP:    r.KernelFingerprint,
		cachedFrom:  r.CachedFrom,
		err:         r.Error,
	}
	if !c.flatten(r.Combos) {
		c.combos = r.Combos
	}
	return c
}

// flatten stores combos in the flat arrays, reporting false (and storing
// nothing) when their shape does not fit them.
func (c *finalResult) flatten(combos []ComboResult) bool {
	if len(combos) == 0 {
		return combos == nil
	}
	width := len(combos[0].GeneIDs)
	named := false
	for _, cr := range combos {
		if len(cr.GeneIDs) != width || width == 0 || len(cr.Symbols) > width || !fitsInt32(cr.NewlyCovered) {
			return false
		}
		for _, id := range cr.GeneIDs {
			if !fitsInt32(id) {
				return false
			}
		}
		named = named || len(cr.Symbols) > 0
	}
	n := len(combos)
	c.width = width
	c.genes = make([]int32, n*width)
	c.f = make([]float64, n)
	c.newly = make([]int32, n)
	if named {
		c.symbols = make([]uint32, n*width)
	}
	for i, cr := range combos {
		for k, id := range cr.GeneIDs {
			c.genes[i*width+k] = int32(id)
		}
		for k, s := range cr.Symbols {
			c.symbols[i*width+k] = 1 + words.id(s)
		}
		c.f[i] = cr.F
		c.newly[i] = int32(cr.NewlyCovered)
	}
	return true
}

func fitsInt32(v int) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// expand rebuilds the API's JobResult; nil stays nil.
func (c *finalResult) expand() *JobResult {
	if c == nil {
		return nil
	}
	r := &JobResult{
		Covered:           c.covered,
		Uncoverable:       c.uncoverable,
		Evaluated:         c.evaluated,
		Pruned:            c.pruned,
		Unscanned:         c.unscanned,
		Partial:           c.partial,
		Stop:              c.stop,
		ElapsedSec:        c.elapsedSec,
		TumorFingerprint:  c.tumorFP,
		NormalFingerprint: c.normalFP,
		KernelFingerprint: c.kernelFP,
		CachedFrom:        c.cachedFrom,
		Error:             c.err,
		Combos:            c.combos,
	}
	n := len(c.f)
	if n == 0 {
		return r
	}
	var names []string
	named := 0
	for _, s := range c.symbols {
		if s != 0 {
			named++
		}
	}
	var syms []string
	if named > 0 {
		names = words.snapshot()
		syms = make([]string, 0, named)
	}
	ids := make([]int, len(c.genes))
	r.Combos = make([]ComboResult, n)
	for i := range r.Combos {
		lo, hi := i*c.width, (i+1)*c.width
		for k, id := range c.genes[lo:hi] {
			ids[lo+k] = int(id)
		}
		cr := ComboResult{GeneIDs: ids[lo:hi:hi], F: c.f[i], NewlyCovered: int(c.newly[i])}
		if c.symbols != nil {
			start := len(syms)
			for _, s := range c.symbols[lo:hi] {
				if s != 0 {
					syms = append(syms, names[s-1])
				}
			}
			if len(syms) > start {
				cr.Symbols = syms[start:len(syms):len(syms)]
			}
		}
		r.Combos[i] = cr
	}
	return r
}

// closedDone is the done channel every finished job shares.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// encodeHistory packs a job's retained frames into one byte slice. The
// sequence numbers are implicit (the frames are consecutive) and so is
// the job id (every frame names its own job), and a ring holds no
// dropped frame (subscriptions make those); the type and state are intern
// ids, the numbers varints.
func encodeHistory(events []Event) []byte {
	if len(events) == 0 {
		return nil
	}
	buf := make([]byte, 0, 16*len(events))
	for _, e := range events {
		buf = appendFrame(buf, e)
	}
	return bytes.Clone(buf)
}

func appendFrame(b []byte, e Event) []byte {
	hasProgress := byte(0)
	if e.Progress != nil {
		hasProgress = 1
	}
	b = append(b, hasProgress)
	b = binary.AppendUvarint(b, uint64(words.id(e.Type)))
	b = binary.AppendUvarint(b, uint64(words.id(e.State)))
	if p := e.Progress; p != nil {
		b = binary.AppendVarint(b, int64(p.Step))
		b = binary.AppendVarint(b, int64(p.DonePartitions))
		b = binary.AppendVarint(b, int64(p.TotalPartitions))
		b = binary.AppendUvarint(b, p.Unscanned)
		b = binary.AppendVarint(b, int64(p.ReplayedSteps))
		b = binary.AppendUvarint(b, p.Generation)
	}
	b = binary.AppendUvarint(b, e.Generation)
	return appendString(b, e.Detail)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// frameReader decodes an encoded history one frame at a time.
type frameReader struct {
	b     []byte
	off   int
	names []string
	bad   bool // a frame ran past the end or named an unknown word
}

// next decodes the frame at the reader's offset, with sequence number
// seq, of job id, and moves past it. It reports false at the end of the
// history or on a malformed frame.
func (r *frameReader) next(id string, seq uint64) (Event, bool) {
	if r.bad || r.off >= len(r.b) {
		return Event{}, false
	}
	hasProgress := r.b[r.off] != 0
	r.off++
	e := Event{Type: r.word(), JobID: id, Seq: seq}
	e.State = r.word()
	if hasProgress {
		e.Progress = &ProgressStatus{
			Step:            int(r.varint()),
			DonePartitions:  int(r.varint()),
			TotalPartitions: int(r.varint()),
			Unscanned:       r.uvarint(),
			ReplayedSteps:   int(r.varint()),
			Generation:      r.uvarint(),
		}
	}
	e.Generation = r.uvarint()
	e.Detail = r.text()
	return e, !r.bad
}

func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[min(r.off, len(r.b)):])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) varint() int64 {
	v, n := binary.Varint(r.b[min(r.off, len(r.b)):])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) word() string {
	id := r.uvarint()
	if r.names == nil {
		r.names = words.snapshot()
	}
	if id >= uint64(len(r.names)) {
		r.bad = true
		return ""
	}
	return r.names[id]
}

func (r *frameReader) text() string {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.bad = true
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// decodeHistory unpacks a whole encoded history whose first frame has
// sequence number first.
func decodeHistory(b []byte, id string, first uint64) []Event {
	var events []Event
	r := frameReader{b: b}
	for seq := first; ; seq++ {
		e, ok := r.next(id, seq)
		if !ok {
			return events
		}
		events = append(events, e)
	}
}
