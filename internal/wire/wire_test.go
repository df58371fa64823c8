package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
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

// TestLeaseFieldsOmittedWhenZero pins the unleased forms: a job without
// scheduler metadata spends one zero byte on each lease field, and a
// result carries no lease key at all, as the pre-scheduler protocol did.
func TestLeaseFieldsOmittedWhenZero(t *testing.T) {
	j := sampleJob(rand.New(rand.NewSource(3)), 2, 4)
	data, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	// format, uid 42, epoch 3, k 10, r 5, then lease, deadline, attempt.
	if head := []byte{JobFormat, 42, 3, 10, 5, 0, 0, 0}; !bytes.HasPrefix(data, head) {
		t.Fatalf("zero-lease job opens % x, want % x", data[:min(len(data), len(head))], head)
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

// jobBody builds a format-3 body from uvarints, with raw byte strings
// spliced in where a case needs bytes no encoder would write.
func jobBody(parts ...any) []byte {
	b := []byte{JobFormat}
	for _, p := range parts {
		switch p := p.(type) {
		case int:
			b = binary.AppendUvarint(b, uint64(p))
		case uint64:
			b = binary.AppendUvarint(b, p)
		case string:
			b = append(b, p...)
		}
	}
	return b
}

// head is an unleased job head after the format byte: uid 1, epoch 2,
// k 10, r 5.
var head = []any{1, 2, 10, 5, 0, 0, 0}

func withHead(rest ...any) []byte { return jobBody(append(append([]any{}, head...), rest...)...) }

// decodeRejections are bodies DecodeJob must reject, with the typed
// cause each must wrap; each has a seed file of the same name under
// testdata/fuzz/FuzzDecodeJob.
var decodeRejections = []struct {
	name string
	body []byte
	want error
}{
	{"seed-f3-wrong-format", append([]byte{2}, withHead(7, 0, 0, 0)[1:]...), ErrJobFormat},
	{"seed-f3-format2-json", []byte(`{"format":2,"uid":1,"epoch":2,"k":10,"r":5,"profile":{"id":7,"liked":[601,11796]},"candidates":[]}`), ErrJobFormat},
	{"seed-f3-empty", nil, ErrJobFormat},
	{"seed-f3-overlong-uid", jobBody("\x80\x80\x80\x80\x80\x01"), ErrBadVarint},
	{"seed-f3-uid-past-32-bits", jobBody("\x80\x80\x80\x80\x10"), ErrBadVarint},
	{"seed-f3-non-minimal-varint", jobBody("\x81\x00"), ErrBadVarint},
	{"seed-f3-epoch-past-64-bits", jobBody(1, "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"), ErrBadVarint},
	{"seed-f3-overlong-gap", withHead(7, 2, 5, "\x80\x80\x80\x80\x80\x01", 0, 0), ErrBadVarint},
	{"seed-f3-zero-gap", withHead(7, 2, 5, 0, 0, 0), ErrBadGap},
	{"seed-f3-gap-overflow", withHead(7, 2, uint64(1<<32-1), 1, 0, 0), ErrBadGap},
	{"seed-f3-candidate-zero-gap", withHead(7, 0, 0, 1, 8, 3, 1, 2, 0, 0), ErrBadGap},
	{"seed-f3-truncated", withHead(7, 2, 5), ErrTruncated},
	{"seed-f3-truncated-head", jobBody(1, 2), ErrTruncated},
	{"seed-f3-count-past-end", withHead(7, 4294967295, 1, 1, 0, 0), ErrTruncated},
	{"seed-f3-candidates-past-end", withHead(7, 0, 0, 4294967295, 8, 0, 0), ErrTruncated},
	{"seed-f3-trailing", withHead(7, 0, 0, 0, 0), ErrTrailingBytes},
}

// TestDecodeJobFormat: a job is format 3 or rejected, its varints are
// shortest-form and in range, its gaps expand to strictly ascending
// uint32s, and it ends exactly where its last candidate does — each
// rejection wrapping its typed cause.
func TestDecodeJobFormat(t *testing.T) {
	for _, tc := range decodeRejections {
		j, err := DecodeJob(tc.body)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		if j != nil {
			t.Errorf("%s: rejected with a non-nil job", tc.name)
		}
	}
	for _, body := range [][]byte{
		withHead(7, 0, 0, 0),
		withHead(7, 2, 0, uint64(1<<32-1), 0, 0),
		withHead(7, 1, 0, 1, 5, 2, 3, 0, 1, 9, 4, 0, 0),
		jobBody(uint64(1<<32-1), uint64(1<<64-1), 0, 0, uint64(1<<64-1), uint64(1<<64-1), 0, 7, 0, 0, 0),
	} {
		j, err := DecodeJob(body)
		if err != nil {
			t.Errorf("% x: %v", body, err)
			continue
		}
		if re := AppendJob(nil, j); !bytes.Equal(re, body) {
			t.Errorf("% x re-encodes as % x", body, re)
		}
	}
	j, err := DecodeJob(withHead(7, 3, 601, 11796, 5888, 2, 0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(j.Profile.Liked, []uint32{601, 12397, 18285}) || !slices.Equal(j.Profile.Disliked, []uint32{0, 1}) {
		t.Fatalf("gaps expanded to %v / %v", j.Profile.Liked, j.Profile.Disliked)
	}
	if j.UID != 1 || j.Epoch != 2 || j.K != 10 || j.R != 5 || j.Profile.ID != 7 || j.Candidates != nil {
		t.Fatalf("head decoded as %+v", j)
	}
}

// TestDecodeJobBoundsItsAllocation: a body whose counts claim more
// elements than it has bytes fails before anything is sized from the
// claim — a 20-byte body cannot make the decoder allocate gigabytes.
func TestDecodeJobBoundsItsAllocation(t *testing.T) {
	for _, body := range [][]byte{
		withHead(7, 4294967295, 1, 1, 0, 0),
		withHead(7, 0, 0, 4294967295, 8, 0, 0),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			if _, err := DecodeJob(body); !errors.Is(err, ErrTruncated) {
				t.Fatalf("% x: %v, want ErrTruncated", body, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 1024 {
			t.Fatalf("% x: %d bytes allocated per rejected decode", body, per)
		}
	}
}

// TestEncoderEquivalence: the appender must produce the reference
// layout's bytes (specJob) for arbitrary jobs, and the head followed by
// the profiles' legs — the engine's cached-leg assembly — the same
// bytes.
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
		want := specJob(j)
		got := AppendJob(nil, j)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got % x\nwant % x", trial, got, want)
		}
		got = append(AppendJobHead(nil, j), AppendProfileMsg(nil, j.Profile)...)
		got = binary.AppendUvarint(got, uint64(len(j.Candidates)))
		for _, c := range j.Candidates {
			got = append(got, AppendProfileMsg(nil, c)...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: head and legs differ from AppendJob", trial)
		}
	}
}

func TestAppendProfileMsgEquivalenceProperty(t *testing.T) {
	prop := func(id uint32, liked, disliked []uint32) bool {
		m := ProfileMsg{ID: id, Liked: liked}
		if len(disliked) > 0 {
			m.Disliked = disliked
		}
		return bytes.Equal(AppendProfileMsg(nil, m), specProfile(nil, m))
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
	gz, err := AppendGzip(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(gz) >= len(data) {
		t.Errorf("did not compress repetitive data (%d → %d)", len(data), len(gz))
	}
	back, err := Decompress(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip mismatch")
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
				gz, err := AppendGzip(nil, data)
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
}

func TestProfileCacheFragmentMatchesDirectEncoding(t *testing.T) {
	var cell FragmentCell
	anon := core.NewAnonymizer(2)
	p := core.NewProfile(5).WithRating(10, true).WithRating(11, false)
	want := AppendProfileMsg(nil, ProfileToMsg(p, anon))
	got := cell.Fragment(p, anon)
	if !bytes.Equal(got, want) {
		t.Fatalf("fragment % x != direct % x", got, want)
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
				if frag := cell.Fragment(p, anon); !bytes.Equal(frag, want) {
					t.Errorf("goroutine %d: fragment % x for a snapshot encoding % x", g, frag, want)
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
	m.CountJob(300)
	m.CountJob(100)
	m.CountResult(50)
	if m.JobBytes() != 400 || m.ResultBytes() != 50 {
		t.Fatalf("meter: job=%d result=%d", m.JobBytes(), m.ResultBytes())
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
		buf = AppendJob(buf[:0], j)
	}
}

func BenchmarkCompressBestSpeed(b *testing.B) {
	j := sampleJob(rand.New(rand.NewSource(1)), 120, 100)
	data := AppendJob(nil, j)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AppendGzip(nil, data); err != nil {
			b.Fatal(err)
		}
	}
}
