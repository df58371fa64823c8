package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"hyrec/internal/core"
)

func sampleJob(rng *rand.Rand, nCandidates, profileSize int) *Job {
	mk := func(id uint32) ProfileMsg {
		liked := make([]uint32, profileSize)
		for i := range liked {
			liked[i] = rng.Uint32() % 10000
		}
		SortUint32(liked)
		return ProfileMsg{ID: id, Liked: dedup(liked)}
	}
	j := &Job{UID: 42, Epoch: 3, K: 10, R: 5, Profile: mk(42)}
	for i := 0; i < nCandidates; i++ {
		j.Candidates = append(j.Candidates, mk(uint32(100+i)))
	}
	return j
}

func dedup(xs []uint32) []uint32 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

func TestJobRoundTrip(t *testing.T) {
	j := sampleJob(rand.New(rand.NewSource(1)), 5, 20)
	data, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJob(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.UID != j.UID || got.Epoch != j.Epoch || len(got.Candidates) != 5 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestLeaseFieldsOmittedWhenZero pins the compatibility contract: a job
// or result without scheduler metadata serializes exactly as the
// pre-scheduler protocol did — no lease keys at all.
func TestLeaseFieldsOmittedWhenZero(t *testing.T) {
	j := sampleJob(rand.New(rand.NewSource(3)), 2, 4)
	data, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"lease", "deadline_ms", "attempt"} {
		if bytes.Contains(data, []byte(key)) {
			t.Fatalf("zero-lease job leaks %q: %s", key, data)
		}
	}
	rdata, err := EncodeResult(&Result{UID: 1, Epoch: 0, Neighbors: []uint32{2}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rdata, []byte("lease")) {
		t.Fatalf("zero-lease result leaks lease field: %s", rdata)
	}
}

// TestLeaseRoundTrip checks the stamped form survives encode/decode on
// both message types.
func TestLeaseRoundTrip(t *testing.T) {
	j := sampleJob(rand.New(rand.NewSource(4)), 1, 2)
	j.Lease, j.LeaseDeadlineMS, j.Attempt = 77, 123456, 2
	data, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJob(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lease != 77 || got.LeaseDeadlineMS != 123456 || got.Attempt != 2 {
		t.Fatalf("lease metadata lost: %+v", got)
	}
	res := &Result{UID: 1, Epoch: 1, Lease: 77, Neighbors: []uint32{2}}
	rdata, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := DecodeResult(rdata)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Lease != 77 {
		t.Fatalf("result lease lost: %+v", rt)
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := &Result{UID: 7, Epoch: 2, Neighbors: []uint32{1, 2}, Recommendations: []uint32{9}}
	data, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.UID != 7 || len(got.Neighbors) != 2 || got.Recommendations[0] != 9 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeJob([]byte("{")); err == nil {
		t.Error("DecodeJob accepted garbage")
	}
	if _, err := DecodeResult([]byte("nope")); err == nil {
		t.Error("DecodeResult accepted garbage")
	}
}

// TestEncoderEquivalence: the hand-rolled appender must produce bytes
// identical to encoding/json for arbitrary jobs, so cached-fragment
// assembly stays interoperable.
func TestEncoderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		j := sampleJob(rng, 1+rng.Intn(6), rng.Intn(30))
		if trial%3 == 0 {
			j.Candidates[0].Disliked = []uint32{1, 5, 9}
		}
		if trial%7 == 0 {
			j.Candidates = nil
		}
		if trial%2 == 0 {
			// Lease metadata present: the scheduler-stamped form.
			j.Lease = 1 + uint64(rng.Int63())
			j.LeaseDeadlineMS = 1 + rng.Int63n(1<<40)
			j.Attempt = 1 + rng.Intn(4)
		}
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendJob(nil, j, nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, got, want)
		}
	}
}

func TestAppendProfileMsgEquivalenceProperty(t *testing.T) {
	prop := func(id uint32, liked, disliked []uint32) bool {
		m := ProfileMsg{ID: id, Liked: liked}
		if len(disliked) > 0 {
			m.Disliked = disliked
		}
		want, err := json.Marshal(m)
		if err != nil {
			return false
		}
		return bytes.Equal(AppendProfileMsg(nil, m), want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileMsgConversionRoundTrip(t *testing.T) {
	p := core.NewProfile(9).WithRating(3, true).WithRating(8, false).WithRating(1, true)
	msg := ProfileToMsg(p, nil)
	back := MsgToProfile(msg)
	if !back.Equal(p) {
		t.Fatalf("round trip changed profile: %v vs %v", back, p)
	}
}

func TestProfileMsgAnonymised(t *testing.T) {
	anon := core.NewAnonymizer(4)
	p := core.NewProfile(9).WithRating(3, true)
	msg := ProfileToMsg(p, anon)
	if msg.ID == 9 {
		t.Error("user ID not pseudonymised")
	}
	if msg.Liked[0] == 3 {
		t.Error("item ID not pseudonymised")
	}
	// Pseudonymisation preserves similarity structure: two users sharing an
	// item still share the aliased item.
	q := core.NewProfile(10).WithRating(3, true)
	qmsg := ProfileToMsg(q, anon)
	if qmsg.Liked[0] != msg.Liked[0] {
		t.Error("shared item aliased inconsistently")
	}
}

func TestGzipRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte(`{"liked":[1,2,3]}`), 100)
	for _, level := range []GzipLevel{GzipHuffmanOnly, GzipBestSpeed, GzipDefault, GzipBestCompact} {
		gz, err := Compress(data, level)
		if err != nil {
			t.Fatal(err)
		}
		if len(gz) >= len(data) {
			t.Errorf("level %d did not compress repetitive data (%d → %d)", level, len(data), len(gz))
		}
		back, err := Decompress(gz)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("level %d: round trip mismatch", level)
		}
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := Decompress([]byte("not gzip")); err == nil {
		t.Error("Decompress accepted garbage")
	}
}

func TestCompressConcurrent(t *testing.T) {
	data := bytes.Repeat([]byte("abc123"), 500)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				gz, err := Compress(data, GzipBestSpeed)
				if err != nil {
					t.Error(err)
					return
				}
				back, err := Decompress(gz)
				if err != nil || !bytes.Equal(back, data) {
					t.Error("concurrent round trip failed")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestProfileCacheHitAndInvalidation(t *testing.T) {
	var cell FragmentCell
	anon := core.NewAnonymizer(1)
	p := core.NewProfile(5).WithRating(1, true)

	f1 := cell.Fragment(p, anon)
	f2 := cell.Fragment(p, anon)
	if &f1[0] != &f2[0] {
		t.Error("cache miss on identical version")
	}
	// Version bump invalidates.
	p2 := p.WithRating(2, true)
	f3 := cell.Fragment(p2, anon)
	if bytes.Equal(f1, f3) {
		t.Error("stale fragment served after profile update")
	}
	// Epoch rotation invalidates everything.
	anon.Advance()
	f4 := cell.Fragment(p2, anon)
	if bytes.Equal(f3, f4) {
		t.Error("stale pseudonyms served after epoch rotation")
	}
	// A JSON hit feeds the deflate leg: the JSON is not re-encoded.
	data, _, err := cell.FragmentGz(p2, anon, GzipBestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if &data[0] != &f4[0] {
		t.Error("FragmentGz re-encoded a cached JSON fragment")
	}
}

func TestProfileCacheFragmentMatchesDirectEncoding(t *testing.T) {
	var cell FragmentCell
	anon := core.NewAnonymizer(2)
	p := core.NewProfile(5).WithRating(10, true).WithRating(11, false)
	want := AppendProfileMsg(nil, ProfileToMsg(p, anon))
	got := cell.Fragment(p, anon)
	if !bytes.Equal(got, want) {
		t.Fatalf("fragment %s != direct %s", got, want)
	}
}

// TestProfileCacheConcurrent races readers and writers on one cell, all
// walking one profile lineage (a version names one snapshot): every
// fragment served must be the encoding of the snapshot its caller holds.
func TestProfileCacheConcurrent(t *testing.T) {
	var cell FragmentCell
	anon := core.NewAnonymizer(3)
	base := core.NewProfile(9).WithRating(1, true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := base
			for i := 0; i < 200; i++ {
				want := AppendProfileMsg(nil, ProfileToMsg(p, anon))
				var frag []byte
				if i%2 == 0 {
					frag = cell.Fragment(p, anon)
				} else {
					var err error
					if frag, _, err = cell.FragmentGz(p, anon, GzipBestSpeed); err != nil {
						t.Error(err)
						return
					}
				}
				if !bytes.Equal(frag, want) {
					t.Errorf("goroutine %d: fragment %s for a snapshot encoding %s", g, frag, want)
					return
				}
				if i%50 == 0 {
					p = p.WithRating(core.ItemID(1000+i), true)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMeter(t *testing.T) {
	var m Meter
	m.CountJob(1000, 300)
	m.CountJob(500, 100)
	m.CountResult(50)
	if m.JSONBytes() != 1500 || m.GzipBytes() != 400 || m.ResultBytes() != 50 {
		t.Fatalf("meter: json=%d gzip=%d result=%d", m.JSONBytes(), m.GzipBytes(), m.ResultBytes())
	}
	if m.Messages() != 3 {
		t.Fatalf("messages = %d", m.Messages())
	}
	if m.TotalOnWire() != 450 {
		t.Fatalf("total = %d", m.TotalOnWire())
	}
}

func BenchmarkEncodeJobStdlib(b *testing.B) {
	j := sampleJob(rand.New(rand.NewSource(1)), 120, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeJob(j); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeJobAppend(b *testing.B) {
	j := sampleJob(rand.New(rand.NewSource(1)), 120, 100)
	buf := make([]byte, 0, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendJob(buf[:0], j, nil)
	}
}

func BenchmarkCompressBestSpeed(b *testing.B) {
	j := sampleJob(rand.New(rand.NewSource(1)), 120, 100)
	data := AppendJob(nil, j, nil)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, GzipBestSpeed); err != nil {
			b.Fatal(err)
		}
	}
}
