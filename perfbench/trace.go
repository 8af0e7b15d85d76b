package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one job share
// its job id; parent links a span to the call that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span over [start, end] and returns its id (0 when the
// tracer is nil).
func (t *tracer) add(name string, parent int64, job string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// open starts a span now whose end is set by the returned function; use
// it around a call whose children are recorded while it runs.
func (t *tracer) open(name string, parent int64, job string) (id int64, end func()) {
	return t.openAt(name, parent, job, time.Now())
}

// openAt is open with an explicit start.
func (t *tracer) openAt(name string, parent int64, job string, start time.Time) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.add(name, parent, job, start, start)
	return id, func() {
		t.mu.Lock()
		t.spans[id-1].End = time.Now().UnixNano()
		t.mu.Unlock()
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children.
func (t *tracer) selfTimes() map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	total += curHi - curLo
	return time.Duration(total)
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name              string
	count             int
	total, self       time.Duration
	medianDur, median time.Duration // median duration and median self time
}

// table aggregates spans by name, ordered by total self time.
func (t *tracer) table() []layerRow {
	self := t.selfTimes()
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.total += s.dur()
		r.self += self[s.ID]
		durs[s.Name] = append(durs[s.Name], s.dur().Seconds())
		selfs[s.Name] = append(selfs[s.Name], self[s.ID].Seconds())
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.medianDur = secs(median(durs[name]))
		r.median = secs(median(selfs[name]))
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].self != out[b].self {
			return out[a].self > out[b].self
		}
		return out[a].name < out[b].name
	})
	return out
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func writeTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-22s %7s %12s %12s %12s %12s\n", "layer", "spans", "total_s", "self_s", "median_s", "median_self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %7d %12.6f %12.6f %12.6f %12.6f\n",
			r.name, r.count, r.total.Seconds(), r.self.Seconds(), r.medianDur.Seconds(), r.median.Seconds())
	}
}

// writeFiles stores the spans (one JSON object a line) and the
// self-time table in dir.
func (t *tracer) writeFiles(dir string, extra func(io.Writer)) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	g, err := os.Create(dir + "/layers.txt")
	if err != nil {
		return err
	}
	writeTable(g, t.table())
	extra(g)
	return g.Close()
}
