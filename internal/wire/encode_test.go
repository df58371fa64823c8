package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// This file pins the contract behind the pooled zero-allocation encoders:
// AppendJob, AppendResult and AppendGzip must be byte-identical to the
// encoding/json (respectively bytes.Buffer-based Compress) output across
// a table-driven corpus covering every omitempty edge — lease fields
// present and absent, empty and nil candidate sets, and max-size
// messages — plus property-based random inputs. For jobs the reference
// is encoding/json's encoding of the job in its wire shape (wireJob).

// wireJob is a job in its wire shape for encoding/json: the format
// member, then Job's fields with every list gap-coded. json.Marshal of
// gapCoded(j) is the reference AppendJob must equal byte for byte;
// json.Unmarshal into a wireJob, a format check and ExpandGaps are the
// oracle DecodeJob is held to.
type wireJob struct {
	Format int `json:"format"`
	Job
}

func gapCoded(j *Job) *wireJob {
	w := &wireJob{Format: JobFormat, Job: *j}
	w.Profile = gapProfile(j.Profile)
	if j.Candidates != nil {
		w.Candidates = make([]ProfileMsg, len(j.Candidates))
		for i, c := range j.Candidates {
			w.Candidates[i] = gapProfile(c)
		}
	}
	return w
}

func gapProfile(m ProfileMsg) ProfileMsg {
	m.Liked, m.Disliked = gaps(m.Liked), gaps(m.Disliked)
	return m
}

// gaps is xs gap-coded in uint32 arithmetic, as the encoder codes it.
func gaps(xs []uint32) []uint32 {
	if xs == nil {
		return nil
	}
	out := make([]uint32, len(xs))
	var prev uint32
	for i, x := range xs {
		out[i], prev = x-prev, x
	}
	return out
}

// marshalWire is the reference encoding of j.
func marshalWire(t testing.TB, j *Job) []byte {
	t.Helper()
	b, err := json.Marshal(gapCoded(j))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encoderCorpusJobs is the golden corpus of jobs whose appended encoding
// must equal json.Marshal exactly.
func encoderCorpusJobs() map[string]*Job {
	big := &Job{UID: 1<<32 - 1, Epoch: 1<<64 - 1, K: 1 << 30, R: 1 << 30}
	for i := 0; i < 512; i++ {
		liked := make([]uint32, 64)
		for j := range liked {
			liked[j] = uint32(i*64 + j)
		}
		big.Candidates = append(big.Candidates, ProfileMsg{ID: uint32(i), Liked: liked})
	}
	big.Profile = ProfileMsg{ID: 7, Liked: []uint32{1, 2, 3}, Disliked: []uint32{9}}
	big.Lease, big.LeaseDeadlineMS, big.Attempt = 1<<64-1, 1<<62, 255

	return map[string]*Job{
		"zero value": {},
		"no lease, nil candidates": {
			UID: 42, Epoch: 3, K: 10, R: 10,
			Profile: ProfileMsg{ID: 42, Liked: []uint32{5}},
		},
		"no lease, empty candidates": {
			UID: 42, Epoch: 3, K: 10, R: 10,
			Profile:    ProfileMsg{ID: 42, Liked: []uint32{}},
			Candidates: []ProfileMsg{},
		},
		"lease present": {
			UID: 1, Epoch: 1, K: 5, R: 5,
			Lease: 77, LeaseDeadlineMS: 123456789, Attempt: 2,
			Profile:    ProfileMsg{ID: 1, Liked: []uint32{1}},
			Candidates: []ProfileMsg{{ID: 2, Liked: []uint32{1, 2}, Disliked: []uint32{3}}},
		},
		"partial lease (only id)": {
			UID: 1, Epoch: 1, K: 5, R: 5, Lease: 9,
			Profile: ProfileMsg{ID: 1, Liked: nil},
		},
		"partial lease (only attempt)": {
			UID: 1, Epoch: 1, K: 5, R: 5, Attempt: 3,
			Profile: ProfileMsg{ID: 1, Liked: []uint32{}},
		},
		"candidate with nil liked": {
			UID: 2, Epoch: 0, K: 1, R: 1,
			Profile:    ProfileMsg{ID: 2, Liked: []uint32{4}},
			Candidates: []ProfileMsg{{ID: 3}},
		},
		"boundary ids": {
			UID: 0, Epoch: 0, K: 1, R: 1,
			Profile: ProfileMsg{ID: 0, Liked: []uint32{0, 1<<32 - 1}},
			Candidates: []ProfileMsg{
				{ID: 1<<32 - 1, Liked: []uint32{0}, Disliked: []uint32{1, 2, 1<<32 - 1}},
				{ID: 1, Liked: []uint32{1<<32 - 1}, Disliked: []uint32{0}},
			},
		},
		"max-size": big,
	}
}

func TestJobEncoderGoldenCorpus(t *testing.T) {
	for name, j := range encoderCorpusJobs() {
		want := marshalWire(t, j)
		if got := AppendJob(nil, j, nil); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %.200s\nwant %.200s", name, got, want)
		}
		// The decoder expands the gaps back into the job encoded.
		back, err := DecodeJob(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(back, j) {
			t.Errorf("%s: decode(encode) changed the job", name)
		}
		// Appending into a pooled, dirty buffer must not change the bytes.
		buf := GetBuf()
		*buf = append(*buf, "garbage-prefix"...)
		*buf = AppendJob(*buf, j, nil)
		if !bytes.Equal((*buf)[len("garbage-prefix"):], want) {
			t.Errorf("%s: pooled-buffer append differs", name)
		}
		PutBuf(buf)
	}
}

// encoderCorpusResults is the golden corpus of results.
func encoderCorpusResults() map[string]*Result {
	maxN := make([]uint32, 4096)
	for i := range maxN {
		maxN[i] = uint32(i * 3)
	}
	return map[string]*Result{
		"zero value":      {},
		"no lease":        {UID: 7, Epoch: 2, Neighbors: []uint32{1, 2}, Recommendations: []uint32{9}},
		"lease present":   {UID: 7, Epoch: 2, Lease: 77, Neighbors: []uint32{1}, Recommendations: []uint32{}},
		"nil sets":        {UID: 1, Epoch: 1, Neighbors: nil, Recommendations: nil},
		"empty sets":      {UID: 1, Epoch: 1, Neighbors: []uint32{}, Recommendations: []uint32{}},
		"max-size batch":  {UID: 1<<32 - 1, Epoch: 1<<64 - 1, Lease: 1<<64 - 1, Neighbors: maxN, Recommendations: maxN},
		"recs only":       {UID: 3, Epoch: 0, Recommendations: []uint32{5, 6, 7}},
		"neighbors only":  {UID: 3, Epoch: 9, Neighbors: []uint32{5}},
		"boundary values": {UID: 0, Epoch: 0, Lease: 1, Neighbors: []uint32{0, 1<<32 - 1}},
	}
}

func TestResultEncoderGoldenCorpus(t *testing.T) {
	for name, r := range encoderCorpusResults() {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := AppendResult(nil, r); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %.200s\nwant %.200s", name, got, want)
		}
		if n := ResultLen(r); n != len(want) {
			t.Errorf("%s: ResultLen %d, encoding is %d bytes", name, n, len(want))
		}
		// Round trip through the production decoder.
		back, err := DecodeResult(AppendResult(nil, r))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		redone, err := json.Marshal(back)
		if err != nil || !bytes.Equal(redone, want) {
			t.Errorf("%s: decode(encode) not idempotent: %s vs %s", name, redone, want)
		}
	}
}

// TestResultEncoderEquivalenceProperty: arbitrary results encode
// identically through both encoders, to exactly ResultLen bytes.
func TestResultEncoderEquivalenceProperty(t *testing.T) {
	prop := func(uid uint32, epoch, lease uint64, neighbors, recs []uint32) bool {
		r := &Result{UID: uid, Epoch: epoch, Lease: lease, Neighbors: neighbors, Recommendations: recs}
		want, err := json.Marshal(r)
		if err != nil {
			return false
		}
		return bytes.Equal(AppendResult(nil, r), want) && ResultLen(r) == len(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendGzipMatchesCompress: the pooled append-compressor produces
// the same bytes as the buffer-based one at every level, including when
// appending after an existing prefix.
func TestAppendGzipMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, level := range []GzipLevel{GzipHuffmanOnly, GzipBestSpeed, GzipDefault, GzipBestCompact} {
		for _, n := range []int{0, 1, 100, 64 << 10} {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Intn(16)) // compressible
			}
			want, err := Compress(data, level)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendGzip(nil, data, level)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("level %d n %d: AppendGzip differs from Compress", level, n)
			}
			prefixed, err := AppendGzip([]byte("prefix"), data, level)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(prefixed, append([]byte("prefix"), want...)) {
				t.Fatalf("level %d n %d: prefixed AppendGzip corrupted", level, n)
			}
			back, err := Decompress(got)
			if err != nil || !bytes.Equal(back, data) {
				t.Fatalf("level %d n %d: round trip failed: %v", level, n, err)
			}
		}
	}
}

// TestAppendEncodersAllocateNothing pins the "pooled encoders allocate
// ~zero" claim at the wire layer: with a warm pool and a pre-grown
// buffer, encoding a job or result performs zero heap allocations. The
// gzip leg's bound holds only without the race detector, under which
// sync.Pool drops Puts at random.
func TestAppendEncodersAllocateNothing(t *testing.T) {
	j := sampleJob(rand.New(rand.NewSource(5)), 30, 20)
	r := &Result{UID: 9, Epoch: 4, Lease: 2, Neighbors: []uint32{1, 2, 3}, Recommendations: []uint32{4, 5}}
	buf := make([]byte, 0, 1<<20)

	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendJob(buf[:0], j, nil)
		buf = AppendResult(buf[:0], r)
	}); allocs > 0 {
		t.Fatalf("append encoders allocate %.1f/op, want 0", allocs)
	}

	if raceEnabled {
		return
	}
	gz := make([]byte, 0, 1<<20)
	data := AppendJob(nil, j, nil)
	if allocs := testing.AllocsPerRun(100, func() {
		out, err := AppendGzip(gz[:0], data, GzipBestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		gz = out
	}); allocs > 0 {
		t.Fatalf("AppendGzip allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkAppendResult(b *testing.B) {
	r := &Result{UID: 9, Epoch: 4, Lease: 2, Neighbors: make([]uint32, 10), Recommendations: make([]uint32, 10)}
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendResult(buf[:0], r)
	}
}

func BenchmarkEncodeResultStdlib(b *testing.B) {
	r := &Result{UID: 9, Epoch: 4, Lease: 2, Neighbors: make([]uint32, 10), Recommendations: make([]uint32, 10)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeResult(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJobBytesInHuffmanAlphabet: every byte a job's wire form holds has
// a code in the spliced path's fixed Huffman fallback (huffman.go). A
// byte outside it sends the whole body out as stored blocks, larger
// than the JSON itself, which is why the format key is a word of the
// alphabet's letters and the format a digit.
func TestJobBytesInHuffmanAlphabet(t *testing.T) {
	for name, j := range encoderCorpusJobs() {
		for i, c := range AppendJob(nil, j, nil) {
			if jsonCode.entries[c] == noCode {
				t.Fatalf("%s: byte %q at offset %d has no fixed Huffman code", name, c, i)
			}
		}
	}
}

// TestProfileMsgLenExact: the fragment cache sizes each cell from
// profileMsgLen, which must be the exact length AppendProfileMsg writes
// for every profile in the corpus and for random digit widths.
func TestProfileMsgLenExact(t *testing.T) {
	check := func(m ProfileMsg) bool {
		return profileMsgLen(m) == len(AppendProfileMsg(nil, m))
	}
	for name, j := range encoderCorpusJobs() {
		for _, m := range append([]ProfileMsg{j.Profile}, j.Candidates...) {
			if !check(m) {
				t.Fatalf("%s: profileMsgLen = %d, encoding is %d bytes", name, profileMsgLen(m), len(AppendProfileMsg(nil, m)))
			}
		}
	}
	for _, x := range []uint32{0, 9, 10, 99, 100, 65535, 65536, 1<<32 - 1} {
		if m := (ProfileMsg{ID: x, Liked: []uint32{x}, Disliked: []uint32{x, x}}); !check(m) {
			t.Fatalf("width of %d: profileMsgLen = %d, encoding is %d bytes", x, profileMsgLen(m), len(AppendProfileMsg(nil, m)))
		}
	}
	if err := quick.Check(func(id uint32, liked, disliked []uint32) bool {
		return check(ProfileMsg{ID: id, Liked: liked, Disliked: disliked})
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
