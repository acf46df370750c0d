package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pcqe/internal/obs"
)

// span is one benchmark-side trace record. Spans of one request share
// Req; Parent indexes the request's span list (-1 for the root).
type span struct {
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    string `json:"err,omitempty"`
}

// spanAgg accumulates one span name's totals over a run.
type spanAgg struct {
	calls   int64
	reqs    int64 // requests in which the name appeared
	totalNs int64
	selfNs  int64
}

// maxKeptSpans caps the spans held for the trace file. Aggregates cover
// every span; past the cap a request's spans are counted as dropped
// after its self times are folded in.
const maxKeptSpans = 1 << 16

// tracer records spans in memory. One tracer belongs to one goroutine.
type tracer struct {
	t0 time.Time
	// req is the current request id; ids advance by step so tracers of
	// concurrent workers never share one.
	req, step int64
	cur       []span
	kept      []span
	dropped   int64
	agg       map[string]*spanAgg
}

// newTracer starts tracer worker of workers, timing spans from t0.
func newTracer(t0 time.Time, worker, workers int) *tracer {
	return &tracer{t0: t0, req: int64(worker), step: int64(workers), agg: map[string]*spanAgg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (-1 for the request root) and returns
// its id.
func (t *tracer) begin(name string, parent int32) int32 {
	id := int32(len(t.cur))
	t.cur = append(t.cur, span{Req: t.req, ID: id, Parent: parent, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int32) { t.cur[id].End = t.now() }

// fail ends a span with an error note.
func (t *tracer) fail(id int32, msg string) {
	t.end(id)
	t.cur[id].Err = msg
}

// graft copies an engine span tree (Response.Timings) under parent, so
// the engine's phases appear in the trace with their real intervals.
func (t *tracer) graft(s *obs.Span, parent int32) {
	if s == nil {
		return
	}
	start := int64(s.Start().Sub(t.t0))
	id := int32(len(t.cur))
	t.cur = append(t.cur, span{Req: t.req, ID: id, Parent: parent, Name: s.Name(),
		Start: start, End: start + int64(s.Duration()), Err: s.Status()})
	for _, c := range s.Children() {
		t.graft(c, id)
	}
}

// finish closes the current request: it folds every span's total and
// self time into the aggregates and keeps the spans for the trace file
// while there is room.
func (t *tracer) finish() {
	children := make([][]int32, len(t.cur))
	for i, s := range t.cur {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	seen := map[string]bool{}
	for i, s := range t.cur {
		a := t.agg[s.Name]
		if a == nil {
			a = &spanAgg{}
			t.agg[s.Name] = a
		}
		a.calls++
		if !seen[s.Name] {
			seen[s.Name] = true
			a.reqs++
		}
		a.totalNs += s.End - s.Start
		a.selfNs += selfTime(s, t.cur, children[i])
	}
	if len(t.kept)+len(t.cur) <= maxKeptSpans {
		t.kept = append(t.kept, t.cur...)
	} else {
		t.dropped += int64(len(t.cur))
	}
	t.cur = t.cur[:0]
	t.req += t.step
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap (parallel solver workers), so the
// covered part is the length of the union of their clipped intervals.
func selfTime(s span, all []span, kids []int32) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := all[k].Start, all[k].End
		if a < s.Start {
			a = s.Start
		}
		if b > s.End {
			b = s.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, curA, curB := int64(0), int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return (s.End - s.Start) - covered
}

// merge folds another tracer's aggregates and kept spans into t.
func (t *tracer) merge(o *tracer) {
	for name, a := range o.agg {
		b := t.agg[name]
		if b == nil {
			b = &spanAgg{}
			t.agg[name] = b
		}
		b.calls += a.calls
		b.reqs += a.reqs
		b.totalNs += a.totalNs
		b.selfNs += a.selfNs
	}
	room := maxKeptSpans - len(t.kept)
	if room > len(o.kept) {
		room = len(o.kept)
	}
	t.kept = append(t.kept, o.kept[:room]...)
	t.dropped += o.dropped + int64(len(o.kept)-room)
}

// perCallMs returns the mean duration per call of a span name, in ms.
func (t *tracer) perCallMs(name string, self bool) float64 {
	a := t.agg[name]
	if a == nil || a.calls == 0 {
		return 0
	}
	ns := a.totalNs
	if self {
		ns = a.selfNs
	}
	return float64(ns) / float64(a.calls) / 1e6
}

// perReqMs returns a span name's summed duration per request that
// called it, in ms.
func (t *tracer) perReqMs(name string) float64 {
	a := t.agg[name]
	if a == nil || a.reqs == 0 {
		return 0
	}
	return float64(a.totalNs) / float64(a.reqs) / 1e6
}

// write stores the kept spans as JSON lines in path, plus a summary of
// every span name's call count, total and self time.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: writing %s: %w", path, err)
		}
	}
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := t.agg[n]
		if err := enc.Encode(map[string]any{"summary": n, "calls": a.calls, "requests": a.reqs,
			"total_ns": a.totalNs, "self_ns": a.selfNs}); err != nil {
			f.Close()
			return fmt.Errorf("trace: writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}
