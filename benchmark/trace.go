package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// The span recorder of the traced pass. Spans are recorded from the
// benchmark's own files, around its calls into each layer's public
// functions; nothing inside the program is instrumented. The pass is
// single-goroutine, so the open spans form a stack and a span's parent
// is simply the one below it.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Op     int    `json:"op"`     // spans of one operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the pass ends.
type tracer struct {
	on    bool // off = every call is a no-op, for the overhead comparison
	t0    time.Time
	op    int
	spans []span
	open  []int // indexes into spans
}

func newTracer() *tracer {
	return &tracer{on: true, t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if !t.on {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
}

// call records fn as one span.
func (t *tracer) call(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

// child records an already-measured interval under the innermost open
// span: a stage a layer timed itself (widget.Timing), laid end to end
// from at.
func (t *tracer) child(name string, at *int64, d time.Duration) {
	if !t.on {
		return
	}
	parent := t.spans[t.open[len(t.open)-1]].ID
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: *at, End: *at + int64(d)})
	*at += int64(d)
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// meanUS is the mean duration, in µs, of the spans called name.
func meanUS(spans []span, name string) float64 {
	var sum, n int64
	for _, s := range spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its child spans cover. Children may overlap each other or
// stick out of the parent; only the union inside the parent counts.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
