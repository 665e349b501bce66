package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span parents with a meaning of their own.
const (
	noParent = -1 // a root span: one op, or background work
	untraced = -2 // background work whose calls are not recorded
	noSpan   = -3 // what a nil tracer hands out
)

// span is one timed call. Spans of one op share the root's id as Trace.
type span struct {
	ID     int    `json:"id"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	BG     bool   `json:"background,omitempty"`
	N      int64  `json:"n,omitempty"`  // a count the call produced
	Op     int    `json:"op,omitempty"` // roots: the op's (session, index) key
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its id.
func (t *tracer) start(name string, parent int, bg bool) int {
	if t == nil {
		return noSpan
	}
	if parent == untraced {
		return untraced
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	trace := id
	if parent >= 0 {
		trace = t.spans[parent].Trace
	}
	t.spans = append(t.spans, span{ID: id, Trace: trace, Parent: parent, Name: name, Start: now, BG: bg})
	return id
}

// end closes a span. Closing a root also closes the spans of its trace
// that a panic left open.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if t.spans[id].Parent != noParent {
		return
	}
	for i := id + 1; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.Trace == id && s.End == 0 {
			s.End = now
		}
	}
}

func (t *tracer) count(id int, n int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].N = n
	t.mu.Unlock()
}

func (t *tracer) key(id, k int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Op = k
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats is the trace reduced per span name and per root.
type spanStats struct {
	self     map[string][]float64 // ms, by name: foreground spans under an op
	count    map[string][]float64 // span counts (N), by name
	extended []float64            // ms of dataset.index calls that grew the index
	bg       map[string][]float64 // ms, background roots by name
	coverage map[string][]float64 // by op kind: child time / root time
	rootMs   map[int]float64      // by op key
}

// reduce computes self times (duration minus the time direct children
// cover; children of one op run one after another) and per-op coverage.
func (t *tracer) reduce() *spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &spanStats{self: map[string][]float64{}, count: map[string][]float64{},
		bg: map[string][]float64{}, coverage: map[string][]float64{}, rootMs: map[int]float64{}}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && !s.BG {
			child[s.Parent] += s.End - s.Start
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for i, s := range t.spans {
		d := s.End - s.Start
		switch {
		case s.BG:
			st.bg[s.Name] = append(st.bg[s.Name], ms(d))
		case s.Parent == noParent:
			st.rootMs[s.Op] = ms(d)
			if d > 0 {
				st.coverage[s.Name] = append(st.coverage[s.Name], float64(child[i])/float64(d))
			}
		default:
			st.self[s.Name] = append(st.self[s.Name], ms(d-child[i]))
			st.count[s.Name] = append(st.count[s.Name], float64(s.N))
			if s.Name == "dataset.index" && s.N > 0 {
				st.extended = append(st.extended, ms(d))
			}
		}
	}
	return st
}
