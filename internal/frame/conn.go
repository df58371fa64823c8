package frame

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrConnClosed reports a read or write on a Conn after Close.
var ErrConnClosed = errors.New("frame: connection closed")

// Conn carries frames over one net.Conn. One goroutine may read
// (ReadFrame) while any number write (WriteFrame): writes coalesce via
// group commit — the first writer to find no flush in progress becomes
// the flusher, swaps the pending buffer out and writes it outside the
// lock while later writers append behind it, so N concurrent small
// frames reach the socket in a handful of large writes instead of N
// syscalls.
type Conn struct {
	c net.Conn

	// Read state (single reader).
	rbuf       []byte
	rstart     int
	maxPayload int

	mu       sync.Mutex
	cond     sync.Cond
	pend     []byte // frames encoded but not yet handed to the kernel
	scratch  []byte // spare buffer the flusher swaps pend against
	enq      uint64 // total bytes ever appended to pend
	flushed  uint64 // total bytes confirmed written
	flushing bool   // a flusher owns the socket write side
	werr     error  // first write error; poisons all later writes
	grace    time.Duration

	meter  *atomic.Int64 // optional transferred-bytes counter
	closed atomic.Bool
}

// NewConn wraps a net.Conn. maxPayload bounds inbound claimed payload
// lengths (<= 0 means MaxPayload).
func NewConn(c net.Conn, maxPayload int) *Conn {
	cn := &Conn{c: c, maxPayload: maxPayload}
	cn.cond.L = &cn.mu
	return cn
}

// SetMeter installs a counter that accumulates bytes read from and
// written to the socket (the frame_bytes_total gauge).
func (cn *Conn) SetMeter(m *atomic.Int64) { cn.meter = m }

// SetWriteGrace bounds each socket write with a deadline so a peer that
// stops draining fails the write instead of wedging every producer
// sharing the connection. Zero restores unbounded writes.
func (cn *Conn) SetWriteGrace(d time.Duration) {
	cn.mu.Lock()
	cn.grace = d
	cn.mu.Unlock()
}

// SetReadDeadline bounds the next ReadFrame (zero time clears it).
func (cn *Conn) SetReadDeadline(t time.Time) error { return cn.c.SetReadDeadline(t) }

// RemoteAddr exposes the underlying socket address.
func (cn *Conn) RemoteAddr() net.Addr { return cn.c.RemoteAddr() }

// Close tears down the socket. Blocked readers and writers fail with
// the socket's error; later writes fail with ErrConnClosed.
func (cn *Conn) Close() error {
	if !cn.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := cn.c.Close()
	cn.mu.Lock()
	if cn.werr == nil {
		cn.werr = ErrConnClosed
	}
	cn.cond.Broadcast()
	cn.mu.Unlock()
	return err
}

// ReadFrame blocks until one complete frame arrives. The returned
// payload aliases the connection's read buffer and is valid only until
// the next ReadFrame call — copy it before parking it anywhere.
func (cn *Conn) ReadFrame() (Frame, error) {
	for {
		if cn.rstart > 0 && cn.rstart == len(cn.rbuf) {
			cn.rbuf = cn.rbuf[:0]
			cn.rstart = 0
		}
		f, n, err := DecodeFrame(cn.rbuf[cn.rstart:], cn.maxPayload)
		if err == nil {
			cn.rstart += n
			return f, nil
		}
		if !errors.Is(err, ErrShort) {
			return Frame{}, err
		}
		// Compact before growing so a long-lived connection does not
		// accrete every consumed frame.
		if cn.rstart > 0 {
			cn.rbuf = append(cn.rbuf[:0], cn.rbuf[cn.rstart:]...)
			cn.rstart = 0
		}
		// Read straight into rbuf's spare capacity: the buffer persists
		// across calls, so the steady state allocates nothing per read.
		if cap(cn.rbuf)-len(cn.rbuf) < 512 {
			grown := make([]byte, len(cn.rbuf), max(4096, 2*cap(cn.rbuf)))
			copy(grown, cn.rbuf)
			cn.rbuf = grown
		}
		n, rerr := cn.c.Read(cn.rbuf[len(cn.rbuf):cap(cn.rbuf)])
		if n > 0 {
			if cn.meter != nil {
				cn.meter.Add(int64(n))
			}
			cn.rbuf = cn.rbuf[:len(cn.rbuf)+n]
			continue
		}
		if rerr == nil {
			rerr = io.ErrUnexpectedEOF
		}
		return Frame{}, rerr
	}
}

// WriteFrame enqueues one frame and returns once its bytes reached the
// kernel (directly, or via another writer's coalesced flush). Safe for
// concurrent use.
func (cn *Conn) WriteFrame(t Type, stream uint64, payload []byte) error {
	cn.mu.Lock()
	if cn.werr != nil {
		err := cn.werr
		cn.mu.Unlock()
		return err
	}
	before := len(cn.pend)
	cn.pend = AppendFrame(cn.pend, t, stream, payload)
	cn.enq += uint64(len(cn.pend) - before)
	myEnd := cn.enq
	if cn.flushing {
		// A flusher owns the socket; it will pick our bytes up on its
		// next swap. Wait for them to clear.
		for cn.werr == nil && cn.flushed < myEnd {
			cn.cond.Wait()
		}
		err := cn.werr
		cn.mu.Unlock()
		return err
	}
	// Become the flusher: write pend outside the lock, looping while
	// other writers pile more behind us.
	cn.flushing = true
	for cn.werr == nil && len(cn.pend) > 0 {
		buf := cn.pend
		cn.pend = cn.scratch[:0]
		grace := cn.grace
		cn.mu.Unlock()

		if grace > 0 {
			cn.c.SetWriteDeadline(time.Now().Add(grace))
		}
		_, werr := cn.c.Write(buf)
		if grace > 0 {
			cn.c.SetWriteDeadline(time.Time{})
		}
		if cn.meter != nil && werr == nil {
			cn.meter.Add(int64(len(buf)))
		}

		cn.mu.Lock()
		cn.scratch = buf
		if werr != nil {
			cn.werr = werr
		} else {
			cn.flushed += uint64(len(buf))
		}
		cn.cond.Broadcast()
	}
	cn.flushing = false
	err := cn.werr
	cn.mu.Unlock()
	return err
}
