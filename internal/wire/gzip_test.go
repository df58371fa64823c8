package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

func gzipOf(t testing.TB, data []byte) []byte {
	t.Helper()
	gz, err := Compress(data, GzipBestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	return gz
}

// TestDecompressBomb: a payload small enough to pass the client's
// 64 MiB response cap must not be able to inflate past the same cap.
// An honest trailer is refused before any work is done; a lying one
// bounds the work to what it declared, then fails.
func TestDecompressBomb(t *testing.T) {
	gz := gzipOf(t, make([]byte, MaxInflatedBytes+1))
	if len(gz) > 1<<20 {
		t.Fatalf("bomb is %d bytes compressed; expected a ~1000x ratio", len(gz))
	}
	if _, err := Decompress(gz); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload: got %v, want an error wrapping ErrTooLarge", err)
	}

	// The same stream under a trailer that claims 1 KiB: the inflater
	// may not run ahead of the claim.
	lying := bytes.Clone(gz)
	binary.LittleEndian.PutUint32(lying[len(lying)-4:], 1<<10)
	dst := make([]byte, 0, 4<<10)
	out, err := AppendDecompress(dst, lying)
	if err == nil {
		t.Fatal("bomb with an understated trailer was accepted")
	}
	if len(out) != 0 || cap(out) != cap(dst) {
		t.Fatalf("understated trailer still grew the buffer to len %d cap %d", len(out), cap(out))
	}

	// Exactly at the limit is allowed.
	if out, err := Decompress(gzipOf(t, make([]byte, MaxInflatedBytes))); err != nil || len(out) != MaxInflatedBytes {
		t.Fatalf("payload at the limit: len %d, err %v", len(out), err)
	}
}

// TestDecompressISIZEMismatch: the trailer sizes the buffer, so it is
// checked, in both directions, and a second gzip member (whose trailer
// describes only itself) is refused the same way.
func TestDecompressISIZEMismatch(t *testing.T) {
	body := bytes.Repeat([]byte(`{"uid":1,"liked":[1,2,3]}`), 100)
	gz := gzipOf(t, body)
	if out, err := Decompress(gz); err != nil || !bytes.Equal(out, body) {
		t.Fatalf("honest payload: err %v", err)
	}
	for _, claim := range []uint32{0, 1, uint32(len(body)) - 1, uint32(len(body)) + 1, 10 * uint32(len(body))} {
		lying := bytes.Clone(gz)
		binary.LittleEndian.PutUint32(lying[len(lying)-4:], claim)
		if out, err := Decompress(lying); err == nil {
			t.Errorf("trailer claiming %d of %d bytes accepted (%d bytes out)", claim, len(body), len(out))
		}
	}
	if _, err := Decompress(append(bytes.Clone(gz), gz...)); err == nil {
		t.Error("two-member payload accepted")
	}
	for _, cut := range []int{0, 5, 17, len(gz) - 1} {
		if _, err := Decompress(gz[:cut]); err == nil {
			t.Errorf("payload truncated to %d bytes accepted", cut)
		}
	}
	// Any stock gzip stream of one member inflates, not just our own.
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	zw.Name = "job.json"
	zw.Write(body)
	zw.Close()
	if out, err := Decompress(buf.Bytes()); err != nil || !bytes.Equal(out, body) {
		t.Fatalf("stock gzip stream with a header name: err %v", err)
	}
}

// TestPooledInflateAllocs: with a recycled destination, inflating a job
// allocates nothing of ours — reader, window and output buffer are all
// reused. What remains is compress/flate's: it builds fresh link tables
// for every dynamic-Huffman block whose codes run past nine bits, a
// count that follows the stream's blocks and that no caller can pool.
// So the allocation count is pinned on a stored-block payload, where
// the decoder builds no tables, and the deflated payload is pinned on
// bytes: a fraction of the job, where a fresh reader and a regrown
// buffer used to cost four times the job.
func TestPooledInflateAllocs(t *testing.T) {
	body := AppendJob(nil, ml1ShapedJob(rand.New(rand.NewSource(2)), 100), nil)
	stored := AppendGzipTrailer(AppendStoredBytes(AppendGzipHeader(nil, GzipBestSpeed), body), body)
	dst, err := AppendDecompress(nil, stored)
	if err != nil || !bytes.Equal(dst, body) {
		t.Fatalf("stored-block payload: err %v", err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if dst, err = AppendDecompress(dst[:0], stored); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("pooled inflate: %.1f allocs/op, want ≤ 4", allocs)
	}
	// Decompress hands out a buffer the caller keeps: that one, sized
	// exactly, and nothing else.
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := Decompress(stored); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("Decompress: %.1f allocs/op, want ≤ 4", allocs)
	}

	gz := gzipOf(t, body)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if dst, err = AppendDecompress(dst[:0], gz); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > uint64(len(body))/4 {
		t.Fatalf("pooled inflate of a %d-byte job allocates %d bytes/op, want under a quarter of the job", len(body), perOp)
	}
}

func BenchmarkDecompressJob(b *testing.B) {
	gz := gzipOf(b, AppendJob(nil, ml1ShapedJob(rand.New(rand.NewSource(1)), 85), nil))
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decompress(gz); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		var dst []byte
		for i := 0; i < b.N; i++ {
			var err error
			if dst, err = AppendDecompress(dst[:0], gz); err != nil {
				b.Fatal(err)
			}
		}
	})
}
