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

// The gzip leg serves one route: the Table-1 /online job, which the
// paper's deployment sent gzip-compressed "on the fly" (Content-Encoding:
// gzip). Every other plane ships job format 3 bare. BestSpeed keeps the
// compression cost per request low; writers and readers are pooled.

// writerPool pools gzip writers: (de)allocating a gzip.Writer per
// request dominates small-message latency otherwise.
var writerPool = sync.Pool{New: func() any {
	w, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed) // a valid level cannot fail
	return w
}}

// sliceWriter adapts an append-grown []byte to io.Writer so the pooled
// gzip writers can emit straight into caller-owned buffers.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var sliceWriterPool = sync.Pool{New: func() any { return new(sliceWriter) }}

// AppendGzip appends the gzip encoding of data (at BestSpeed; the header
// carries no timestamp, so equal inputs give equal bytes) to dst and
// returns the extended slice. Writers and adapter state are pooled, so
// with a pre-grown dst the call allocates nothing.
func AppendGzip(dst, data []byte) ([]byte, error) {
	sw := sliceWriterPool.Get().(*sliceWriter)
	sw.b = dst
	w := writerPool.Get().(*gzip.Writer)
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
	writerPool.Put(w)
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

// Meter counts the bytes of outgoing jobs (their format-3 encoding,
// as every /v1 plane ships it) and of incoming results. The Table-1
// /online route ships the gzip of that encoding instead; the meter
// still counts the format-3 length there, since the gzip is taken
// after the job leaves the engine. It backs the per-node bandwidth
// comparison of Section 5.6. Safe for concurrent use; the zero value
// is ready.
type Meter struct {
	jobBytes    atomic.Int64
	resultBytes atomic.Int64
	messages    atomic.Int64
}

// CountJob records one outgoing personalization job of n bytes.
func (m *Meter) CountJob(n int) {
	m.jobBytes.Add(int64(n))
	m.messages.Add(1)
}

// CountResult records one incoming widget result of n bytes.
func (m *Meter) CountResult(n int) {
	m.resultBytes.Add(int64(n))
	m.messages.Add(1)
}

// JobBytes returns cumulative job bytes (server → client).
func (m *Meter) JobBytes() int64 { return m.jobBytes.Load() }

// ResultBytes returns cumulative result bytes (client → server).
func (m *Meter) ResultBytes() int64 { return m.resultBytes.Load() }

// Messages returns the total number of metered messages.
func (m *Meter) Messages() int64 { return m.messages.Load() }

// TotalOnWire returns the format-3 job bytes plus the result bytes:
// what crossed the network on every plane but /online, whose gzip is
// not metered (see Meter).
func (m *Meter) TotalOnWire() int64 { return m.JobBytes() + m.ResultBytes() }
