package main

import (
	"testing"

	"hyrec/internal/core"
)

func TestStreamIsAFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := buildInputs(w, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildInputs(w, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildInputs(w, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.streamHash != b.streamHash {
			t.Errorf("%s: same seed gave streams %x and %x", w.name, a.streamHash, b.streamHash)
		}
		if a.streamHash == c.streamHash {
			t.Errorf("%s: seeds 3 and 4 gave the same stream %x", w.name, a.streamHash)
		}
	}
}

// The two ingest workloads differ only in the deployment they are sent
// to: the distribution tax is read off the difference.
func TestIngestWorkloadsShareOneStream(t *testing.T) {
	single, _ := findWorkload("ingest-framed-digg")
	double, _ := findWorkload("ingest-2node-digg")
	a, err := buildInputs(single, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildInputs(double, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.streamHash != b.streamHash {
		t.Errorf("stream hashes differ: %x vs %x", a.streamHash, b.streamHash)
	}
}

// Partitioning by user hash keeps each user on one goroutine, in trace
// order, and loses no rating.
func TestPartitionKeepsPerUserOrder(t *testing.T) {
	w, _ := findWorkload("ingest-framed-digg")
	one, err := buildInputs(w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	three, err := buildInputs(w, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[core.UserID][]core.ItemID)
	for _, ev := range one.parts[0].events {
		want[ev.User] = append(want[ev.User], ev.Item)
	}
	got := make(map[core.UserID][]core.ItemID)
	total := 0
	for c := range three.parts {
		for _, ev := range three.parts[c].events {
			if partOf(ev.User, 3) != c {
				t.Fatalf("user %d found on goroutine %d, hashes to %d", ev.User, c, partOf(ev.User, 3))
			}
			got[ev.User] = append(got[ev.User], ev.Item)
			total++
		}
	}
	if total != len(one.parts[0].events) {
		t.Fatalf("3 partitions hold %d ratings, the trace has %d", total, len(one.parts[0].events))
	}
	for u, items := range want {
		if len(got[u]) != len(items) {
			t.Fatalf("user %d: %d ratings, want %d", u, len(got[u]), len(items))
		}
		for i := range items {
			if got[u][i] != items[i] {
				t.Fatalf("user %d: rating %d is item %d, want %d: order changed", u, i, got[u][i], items[i])
			}
		}
	}
}

// The stream is endless and stationary: pass p replays the trace with
// the opinion flipped on odd passes, so profile sizes never change.
func TestStreamFlipsEachPass(t *testing.T) {
	w, _ := findWorkload("ingest-framed-digg")
	in, err := buildInputs(w, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &in.parts[0]
	n := len(p.events)
	for _, g := range []int{0, 1, n - 1} {
		a, b, c := p.rating(g), p.rating(g+n), p.rating(g+2*n)
		if a.User != b.User || a.Item != b.Item || a.Liked == b.Liked {
			t.Errorf("rating %d: pass 0 %+v, pass 1 %+v: want the same pair, opinion flipped", g, a, b)
		}
		if a != c {
			t.Errorf("rating %d: pass 2 %+v differs from pass 0 %+v", g, c, a)
		}
	}
	if got := len(p.batch(0, nil)); got != ingestBatch {
		t.Errorf("batch holds %d ratings, want %d", got, ingestBatch)
	}
	if p.setupOps()*ingestBatch < n {
		t.Errorf("%d set-up ops of %d do not cover the %d-rating trace", p.setupOps(), ingestBatch, n)
	}
}

func TestRefreshTogglesKeepProfileSize(t *testing.T) {
	w, _ := findWorkload("refresh-ws-digg")
	in, err := buildInputs(w, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &in.parts[1]
	seen := make(map[core.UserID]bool)
	for s := 0; s < len(p.users); s++ {
		r := p.toggle(s)
		if seen[r.User] {
			t.Fatalf("user %d visited twice in one round", r.User)
		}
		seen[r.User] = true
		known := false
		for _, ev := range p.items[r.User] {
			if ev.Item == r.Item {
				known = ev.Liked != r.Liked // the first visit flips the trace's opinion
			}
		}
		if !known {
			t.Fatalf("toggle %+v is not a flip of one of the user's own trace ratings", r)
		}
	}
}
