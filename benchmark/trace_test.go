package main

import "testing"

// A span's self time is its duration minus the part of its interval its
// children cover: overlapping children count once, and a child sticking
// out of its parent only counts inside it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // 20 outside the parent
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (30 + 20 + 10), // a, the part of b after a, the part of c inside
		2: 30 - 5,
		3: 30,
		4: 30,
		5: 5,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if byName["op"] != 40 || byName["a"] != 25 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestTracerNestingAndOff(t *testing.T) {
	tr := newTracer()
	tr.op = 7
	tr.begin("outer")
	tr.call("inner", func() {})
	at := tr.now()
	tr.child("timed", &at, 50)
	tr.end()
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	outer, inner, timed := tr.spans[0], tr.spans[1], tr.spans[2]
	if inner.Parent != outer.ID || timed.Parent != outer.ID || outer.Parent != 0 {
		t.Errorf("parents: outer=%d inner=%d timed=%d", outer.Parent, inner.Parent, timed.Parent)
	}
	if inner.Op != 7 || timed.dur() != 50 {
		t.Errorf("inner op = %d, timed dur = %d", inner.Op, timed.dur())
	}
	if outer.End < inner.End || inner.Start < outer.Start {
		t.Errorf("inner [%d,%d] not inside outer [%d,%d]", inner.Start, inner.End, outer.Start, outer.End)
	}
	tr.on = false
	tr.call("ignored", func() {})
	if len(tr.spans) != 3 {
		t.Error("a tracer that is off must record nothing")
	}
}
