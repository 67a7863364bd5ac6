package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded around a call the benchmark makes
// into a layer: an HTTP request to a server, or an in-process call to a
// package's public entry point. Spans of one request share Req; Parent
// is the id of the span that caused this one (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent,omitempty"`
	Req    int           `json:"req,omitempty"`
}

// tracer keeps spans in memory until the benchmark writes them out at
// exit. Spans are recorded once their interval is known, parents before
// children. A nil *tracer records nothing, so an untraced phase pays
// one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds the interval [start, end] and returns its span id (0 from
// a nil tracer).
func (t *tracer) record(name string, start, end time.Time, parent, req int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Parent: parent, Req: req})
	return len(t.spans)
}

// open starts a span whose end is not known yet, so its children can
// name it as their parent; close sets the end.
func (t *tracer) open(name string, start time.Time, parent, req int) int {
	return t.record(name, start, start.Add(-1), parent, req)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.epoch)
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover. Children may nest, overlap one
// another (concurrent calls) or stick out past the parent; only the
// union of their intervals inside the parent is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		open := false
		var curStart, curEnd time.Duration
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if open && ks <= curEnd {
				curEnd = max(curEnd, ke)
				continue
			}
			if open {
				covered += curEnd - curStart
			}
			open, curStart, curEnd = true, ks, ke
		}
		if open {
			covered += curEnd - curStart
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// ledgerRow aggregates the spans of one name.
type ledgerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
	P50   time.Duration
}

// ledger aggregates spans by name, in first-seen order.
func ledger(spans []span) []ledgerRow {
	self := selfTimes(spans)
	idx := make(map[string]int)
	var rows []ledgerRow
	durs := make(map[string]sample)
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(rows)
			idx[s.Name] = i
			rows = append(rows, ledgerRow{Name: s.Name})
		}
		rows[i].Count++
		rows[i].Total += s.End - s.Start
		rows[i].Self += self[s.ID]
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	for i := range rows {
		rows[i].P50 = time.Duration(durs[rows[i].Name].median())
	}
	return rows
}

// writeSpans writes one JSON object per span, with its self time.
func writeSpans(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			span
			Self time.Duration `json:"self_ns"`
		}{s, self[s.ID]}); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return bw.Flush()
}
