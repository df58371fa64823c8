package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestGzipHuffmanRoundTrip: any body — empty, every byte value, random
// binary, job JSON — inflates back to itself through compress/gzip.
func TestGzipHuffmanRoundTrip(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 70000)
	rng.Read(random)
	bodies := map[string][]byte{
		"empty":      {},
		"one byte":   {'7'},
		"every byte": all,
		"random":     random,
	}
	for name, j := range encoderCorpusJobs() {
		bodies["job "+name] = AppendJob(nil, j, nil)
	}
	// Every length across a few eight-byte steps and the tail after them.
	alphabet := []byte(`0123456789,[]{}":_acdefhiklmnoprstu`)
	for n := 1; n <= 40; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		bodies[fmt.Sprintf("%d alphabet bytes", n)] = b
	}
	// One byte the code does not cover, at every position of a step and
	// of the tail: each must send the body down the stored-block escape.
	for i := 0; i < 19; i++ {
		b := []byte("1234567890123456789")
		b[i] = ' '
		bodies[fmt.Sprintf("foreign byte at %d", i)] = b
	}
	for name, body := range bodies {
		for _, level := range []GzipLevel{GzipBestSpeed, GzipLevel(9)} {
			gz := AppendGzipHuffman([]byte("prefix"), body, level)
			if !bytes.HasPrefix(gz, []byte("prefix")) {
				t.Fatalf("%s: destination prefix clobbered", name)
			}
			got, err := Decompress(gz[len("prefix"):])
			if err != nil {
				t.Fatalf("%s: inflate: %v", name, err)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("%s: inflated %d bytes, want %d", name, len(got), len(body))
			}
		}
	}
}

// TestGzipHuffmanShrinksSmallJobs: a job whose candidates are too small
// for spliced deflate fragments to pay off still ships smaller than its
// JSON — the whole point of the fallback over stored blocks.
func TestGzipHuffmanShrinksSmallJobs(t *testing.T) {
	j := &Job{UID: 3, Epoch: 1, K: 10, R: 10, Profile: ProfileMsg{ID: 3, Liked: []uint32{61022}}}
	for i := uint32(0); i < 9; i++ {
		j.Candidates = append(j.Candidates, ProfileMsg{ID: 3000000000 + i*7919, Liked: []uint32{i * 4567 % 65536}})
	}
	body := AppendJob(nil, j, nil)
	gz := AppendGzipHuffman(nil, body, GzipBestSpeed)
	if len(gz) >= len(body) {
		t.Fatalf("%d-byte job coded to %d bytes", len(body), len(gz))
	}
	t.Logf("%d-byte job → %d bytes (header %d bits)", len(body), len(gz), jsonCode.headerBits)
}

func BenchmarkAppendGzipHuffman(b *testing.B) {
	j := encoderCorpusJobs()["max-size"]
	body := AppendJob(nil, j, nil)
	dst := make([]byte, 0, len(body))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendGzipHuffman(dst[:0], body, GzipBestSpeed)
	}
	b.ReportMetric(float64(len(dst))/float64(len(body)), "ratio")
}
