package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// GzipLevel selects the compression effort for outgoing jobs. The paper
// compresses "on the fly"; we default to BestSpeed, trading a slightly
// larger payload for front-end latency (ablation:
// BenchmarkAblationGzipLevel).
type GzipLevel int

// Supported compression levels. GzipHuffmanOnly (Huffman coding without
// Lempel-Ziv matching) is the latency escape hatch: the paper's J2EE stack
// compressed with native zlib, which is several times faster than Go's
// pure-Go gzip at the same level, so deployments that care about
// single-request latency more than the last 20% of bandwidth can pick it
// (see BenchmarkAblationGzipLevel for the measured trade-off).
const (
	GzipBestSpeed   GzipLevel = gzip.BestSpeed
	GzipDefault     GzipLevel = -1 // gzip.DefaultCompression
	GzipBestCompact GzipLevel = gzip.BestCompression
	GzipHuffmanOnly GzipLevel = gzip.HuffmanOnly
)

// writerPools pools gzip writers per level: (de)allocating a gzip.Writer
// per request dominates small-message latency otherwise.
var writerPools sync.Map // GzipLevel → *sync.Pool

func pool(level GzipLevel) *sync.Pool {
	if p, ok := writerPools.Load(level); ok {
		return p.(*sync.Pool)
	}
	p := &sync.Pool{New: func() any {
		w, err := gzip.NewWriterLevel(io.Discard, int(level))
		if err != nil {
			// Level is validated by callers; fall back to default.
			w = gzip.NewWriter(io.Discard)
		}
		return w
	}}
	actual, _ := writerPools.LoadOrStore(level, p)
	return actual.(*sync.Pool)
}

// Compress gzips data at the given level into a fresh buffer. The hot
// path uses AppendGzip with a pooled destination instead; both produce
// identical bytes (the gzip header carries no timestamp).
func Compress(data []byte, level GzipLevel) ([]byte, error) {
	return AppendGzip(make([]byte, 0, len(data)/3+64), data, level)
}

// sliceWriter adapts an append-grown []byte to io.Writer so the pooled
// gzip writers can emit straight into caller-owned buffers.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var sliceWriterPool = sync.Pool{New: func() any { return new(sliceWriter) }}

// AppendGzip appends the gzip encoding of data (at the given level) to
// dst and returns the extended slice. Writers and adapter state are
// pooled, so with a pre-grown dst the call allocates nothing.
func AppendGzip(dst, data []byte, level GzipLevel) ([]byte, error) {
	sw := sliceWriterPool.Get().(*sliceWriter)
	sw.b = dst
	p := pool(level)
	w, ok := p.Get().(*gzip.Writer)
	if !ok {
		return nil, fmt.Errorf("wire: corrupt gzip writer pool")
	}
	w.Reset(sw)
	if _, err := w.Write(data); err != nil {
		return nil, fmt.Errorf("wire: gzip write: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("wire: gzip close: %w", err)
	}
	out := sw.b
	sw.b = nil
	sliceWriterPool.Put(sw)
	p.Put(w)
	return out, nil
}

// MaxInflatedBytes caps what one gzip payload may inflate to — the same
// 64 MiB the client allows a response on the wire, so a peer cannot
// turn a response it is allowed to send into a thousand times the
// memory.
const MaxInflatedBytes = 64 << 20

// inflater is the pooled read side: a gzip.Reader keeps ~40 KB of
// window and Huffman tables that Reset reuses, and reading through an
// embedded bytes.Reader (an io.ByteReader) keeps it from wrapping the
// source in a bufio.Reader of its own.
type inflater struct {
	src bytes.Reader
	zr  gzip.Reader
}

var inflaterPool = sync.Pool{New: func() any { return new(inflater) }}

// Decompress inflates a gzip payload into a fresh buffer of exactly the
// inflated size. See AppendDecompress for the limits.
func Decompress(data []byte) ([]byte, error) {
	return AppendDecompress(nil, data)
}

// AppendDecompress appends the inflation of a gzip payload to dst and
// returns the extended slice — one growth of dst, sized from the
// payload's ISIZE trailer, and nothing else once the pool is warm. The
// trailer is a claim, not a fact, so it only ever bounds the work: a
// payload declaring more than MaxInflatedBytes fails with an error
// wrapping ErrTooLarge before a byte is inflated, and one that inflates
// to anything but what it declared (a lying trailer, or a second gzip
// member — the protocol ships exactly one) fails within one byte of the
// declared size. On error dst is returned unextended.
func AppendDecompress(dst, data []byte) ([]byte, error) {
	if len(data) < 18 { // 10-byte header + 8-byte trailer
		return dst, fmt.Errorf("wire: gzip open: %w", io.ErrUnexpectedEOF)
	}
	size := int(binary.LittleEndian.Uint32(data[len(data)-4:]))
	if size > MaxInflatedBytes {
		return dst, fmt.Errorf("%w: gzip payload declares %d bytes inflated, limit %d", ErrTooLarge, size, MaxInflatedBytes)
	}
	in := inflaterPool.Get().(*inflater)
	defer func() {
		in.src.Reset(nil) // a pooled reader must not pin the caller's payload
		inflaterPool.Put(in)
	}()
	in.src.Reset(data)
	if err := in.zr.Reset(&in.src); err != nil {
		return dst, fmt.Errorf("wire: gzip open: %w", err)
	}
	// One spare byte: the read that finds the end of the stream (and
	// checks the trailer) needs somewhere to not put data, and a stream
	// that runs past its declared size shows up as that byte filled.
	start := len(dst)
	dst = slices.Grow(dst, size+1)
	buf := dst[start : start+size+1]
	n := 0
	for n < len(buf) {
		m, err := in.zr.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst[:start], fmt.Errorf("wire: gzip read: %w", err)
		}
	}
	if n != size {
		return dst[:start], fmt.Errorf("wire: gzip read: payload does not inflate to the %d bytes its trailer declares", size)
	}
	return dst[:start+size], nil
}

// Meter counts bytes crossing a boundary, in both raw (JSON) and
// compressed (gzip) form. It backs Figure 10 and the per-node bandwidth
// comparison of Section 5.6. Safe for concurrent use; the zero value is
// ready.
type Meter struct {
	jsonBytes  atomic.Int64
	gzipBytes  atomic.Int64
	messages   atomic.Int64
	resultJSON atomic.Int64
}

// CountJob records one outgoing personalization job.
func (m *Meter) CountJob(jsonLen, gzipLen int) {
	m.jsonBytes.Add(int64(jsonLen))
	m.gzipBytes.Add(int64(gzipLen))
	m.messages.Add(1)
}

// CountResult records one incoming widget result.
func (m *Meter) CountResult(jsonLen int) {
	m.resultJSON.Add(int64(jsonLen))
	m.messages.Add(1)
}

// JSONBytes returns cumulative uncompressed job bytes.
func (m *Meter) JSONBytes() int64 { return m.jsonBytes.Load() }

// GzipBytes returns cumulative compressed job bytes.
func (m *Meter) GzipBytes() int64 { return m.gzipBytes.Load() }

// ResultBytes returns cumulative result bytes (client → server).
func (m *Meter) ResultBytes() int64 { return m.resultJSON.Load() }

// Messages returns the total number of metered messages.
func (m *Meter) Messages() int64 { return m.messages.Load() }

// TotalOnWire returns the bytes that actually crossed the network:
// compressed jobs plus (uncompressed) results.
func (m *Meter) TotalOnWire() int64 { return m.GzipBytes() + m.ResultBytes() }
