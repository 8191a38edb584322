package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark's own code around calls into each layer's public
// functions (spans inside the program are ROADMAP item 4); they stay in
// memory and are written out once, when the traced run ends.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // span id, -1 for a root
	Cell    string `json:"cell,omitempty"`
	StartNS int64  `json:"start_ns"` // since the tracer's epoch
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer collects spans from one goroutine: begin/end nest like a call
// stack, so a span's parent is whatever was open when it began. The
// traced run drives every layer from the main goroutine, which is what
// makes the stack discipline sound.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name, cell string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Cell: cell, StartNS: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes span id (and anything still open above it) and returns its
// duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.epoch))
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].EndNS = now
		if top == id {
			break
		}
	}
	return t.spans[id].dur()
}

// named returns the durations of every span called name, in recording
// order.
func (t *tracer) named(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children of one parent never
// overlap here (single-goroutine stack discipline), so the covered part
// is the sum of the children's durations clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if hi > lo {
			self[s.Parent] -= time.Duration(hi - lo)
		}
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func usF(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durs(ds []time.Duration, f func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = f(d)
	}
	return out
}
