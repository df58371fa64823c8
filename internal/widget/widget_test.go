package widget

import (
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

func jobFixture() *wire.Job {
	// User 1 liked items {1,2}; candidates: user 2 identical, user 3
	// disjoint, user 4 partially overlapping with a novel item 5.
	return &wire.Job{
		UID: 1, Epoch: 0, K: 2, R: 3,
		Profile: wire.ProfileMsg{ID: 1, Liked: []uint32{1, 2}},
		Candidates: []wire.ProfileMsg{
			{ID: 2, Liked: []uint32{1, 2}},
			{ID: 3, Liked: []uint32{7, 8}},
			{ID: 4, Liked: []uint32{2, 5}},
		},
	}
}

func TestExecuteSelectsNeighborsAndRecs(t *testing.T) {
	w := New()
	res, timing := w.Execute(jobFixture())
	if res.UID != 1 || res.Epoch != 0 {
		t.Fatalf("result header: %+v", res)
	}
	if len(res.Neighbors) != 2 || res.Neighbors[0] != 2 || res.Neighbors[1] != 4 {
		t.Fatalf("neighbors = %v, want [2 4]", res.Neighbors)
	}
	// Unseen items: 7,8 (from u3), 5 (from u4) — each popularity 1; top-3
	// by ascending-ID tie-break = [5 7 8].
	if len(res.Recommendations) != 3 || res.Recommendations[0] != 5 {
		t.Fatalf("recs = %v", res.Recommendations)
	}
	if timing.Total <= 0 {
		t.Fatal("no timing recorded")
	}
}

func TestExecutePayloadRoundTrip(t *testing.T) {
	raw, err := wire.EncodeJob(jobFixture())
	if err != nil {
		t.Fatal(err)
	}
	gz, err := wire.AppendGzip(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	res, timing, err := w.ExecutePayload(gz)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 2 {
		t.Fatalf("neighbors = %v", res.Neighbors)
	}
	if timing.Decompress <= 0 || timing.Decode <= 0 {
		t.Fatalf("missing phases: %+v", timing)
	}
}

func TestExecutePayloadErrors(t *testing.T) {
	w := New()
	if _, _, err := w.ExecutePayload([]byte("junk")); err == nil {
		t.Fatal("accepted non-gzip payload")
	}
	gz, err := wire.AppendGzip(nil, []byte("{"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.ExecutePayload(gz); err == nil {
		t.Fatal("accepted a payload that is not a job")
	}
}

func TestWithSimilarityOption(t *testing.T) {
	w := New(WithSimilarity(core.Overlap{}))
	res, _ := w.Execute(jobFixture())
	// Overlap ranks u2 (2 common) over u4 (1 common) the same as cosine
	// here; the test just asserts the option is wired through without
	// changing correctness.
	if len(res.Neighbors) != 2 || res.Neighbors[0] != 2 {
		t.Fatalf("neighbors = %v", res.Neighbors)
	}
}

func TestDeviceScale(t *testing.T) {
	laptop := Laptop()
	if got := laptop.Scale(time.Millisecond); got != time.Millisecond {
		t.Fatalf("laptop scale = %v", got)
	}
	phone := Smartphone()
	if got := phone.Scale(time.Millisecond); got != 7*time.Millisecond {
		t.Fatalf("smartphone scale = %v", got)
	}
	loaded := laptop.WithLoad(0.5)
	if got := loaded.Scale(time.Millisecond); got != 2*time.Millisecond {
		t.Fatalf("loaded scale = %v", got)
	}
	// Load saturates rather than exploding: 1ms / (1-0.95) = 20ms ± ε.
	maxed := laptop.WithLoad(1.0)
	if got := maxed.Scale(time.Millisecond); got < 19*time.Millisecond || got > 21*time.Millisecond {
		t.Fatalf("saturated scale = %v", got)
	}
	// Zero/negative SpeedFactor treated as 1.
	weird := Device{Name: "x", SpeedFactor: 0}
	if got := weird.Scale(time.Millisecond); got != time.Millisecond {
		t.Fatalf("zero-speed scale = %v", got)
	}
	neg := laptop.WithLoad(-3)
	if got := neg.Scale(time.Millisecond); got != time.Millisecond {
		t.Fatalf("negative load scale = %v", got)
	}
}

func TestDeviceScalingAppliedToTiming(t *testing.T) {
	fast := New(WithDevice(Laptop()))
	slow := New(WithDevice(Smartphone()))
	job := jobFixture()
	_, ft := fast.Execute(job)
	_, st := slow.Execute(job)
	// The smartphone's scaled total must exceed the laptop's on the same
	// job (both run the same machine; scaling is deterministic 7×).
	if st.Total <= ft.Total {
		t.Fatalf("smartphone total %v not > laptop %v", st.Total, ft.Total)
	}
}

func TestWidgetStateless(t *testing.T) {
	w := New()
	job := jobFixture()
	r1, _ := w.Execute(job)
	r2, _ := w.Execute(job)
	if len(r1.Neighbors) != len(r2.Neighbors) {
		t.Fatal("widget kept state between executions")
	}
	for i := range r1.Neighbors {
		if r1.Neighbors[i] != r2.Neighbors[i] {
			t.Fatal("non-deterministic execution")
		}
	}
}

func BenchmarkExecute(b *testing.B) {
	job := jobFixture()
	w := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Execute(job)
	}
}
