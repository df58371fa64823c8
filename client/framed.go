package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hyrec/internal/frame"
	"hyrec/internal/server"
	"hyrec/internal/wire"
)

// The framed transport upgrade (WithFramed): RateBatch, NextJob, Job,
// Ack, ApplyResult and Replicate ride one persistent multiplexed
// binary connection (internal/frame) instead of per-request JSON/HTTP,
// falling back to the JSON path transparently whenever the framed
// connection cannot be dialed or drops mid-exchange. Retries, overload
// waits and moved/not_primary re-targeting are the exchange's (see
// Client.exchange), the same on both lanes.

// frameDialTimeout bounds the framed dial + handshake; a dead frame
// listener costs one connect attempt, then the redial backoff gates
// further ones.
const frameDialTimeout = 3 * time.Second

// frameRedialBackoff is how long the client stays on the JSON path
// after a failed framed dial before probing again.
const frameRedialBackoff = 2 * time.Second

// WithFramed upgrades the client's hot wire paths onto one persistent
// multiplexed binary connection to addr (host:port — the server's
// -frame-addr listener). Dial failures and mid-stream drops fall back
// to the JSON /v1 path, so a client stays correct when the framed
// listener is absent, unreachable, or restarting.
func WithFramed(addr string) Option {
	return func(c *Client) { c.frameAddr = addr }
}

// framedConn is one live framed connection: a writer-shared
// frame.Conn plus a demultiplexing reader that routes each response
// frame to the stream that asked.
type framedConn struct {
	cn *frame.Conn

	mu      sync.Mutex
	streams map[uint64]chan frameResp
	nextID  uint64
	dead    error // reader exit reason; all pending calls fail with it
}

type frameResp struct {
	t       frame.Type
	payload []byte // owned copy (backed by *buf when non-nil)
	buf     *[]byte
}

// Pools for the per-call machinery: the response rendezvous channel,
// the payload copy the read loop hands over, and the timer that stands
// in for a per-call context.WithTimeout. Together they make a framed
// exchange allocation-free on the client.
var respChanPool = sync.Pool{New: func() any { return make(chan frameResp, 1) }}

var timerPool sync.Pool

// putRespBuf releases a response payload's backing buffer once the
// caller is done with it.
func putRespBuf(buf *[]byte) {
	if buf != nil {
		wire.PutBuf(buf)
	}
}

// dialFramed establishes and handshakes one framed connection. The
// hello presents the node-plane secret and, for a node's proxy client,
// the forwarded flag.
func dialFramed(addr, secret string, forwarded bool) (*framedConn, error) {
	nc, err := net.DialTimeout("tcp", addr, frameDialTimeout)
	if err != nil {
		return nil, err
	}
	cn := frame.NewConn(nc, 0)
	cn.SetWriteGrace(frameDialTimeout)
	cn.SetReadDeadline(time.Now().Add(frameDialTimeout))
	if err := cn.WriteFrame(frame.THello, 0, frame.AppendHello(nil, secret, forwarded)); err != nil {
		cn.Close()
		return nil, err
	}
	f, err := cn.ReadFrame()
	if err != nil {
		cn.Close()
		return nil, err
	}
	if f.Type != frame.THelloOK {
		cn.Close()
		if f.Type == frame.TError {
			return nil, decodeFrameError(f.Payload)
		}
		return nil, fmt.Errorf("hyrec client: framed handshake answered %#x", byte(f.Type))
	}
	cn.SetReadDeadline(time.Time{})
	fc := &framedConn{cn: cn, streams: make(map[uint64]chan frameResp), nextID: 1}
	go fc.readLoop()
	return fc, nil
}

// readLoop demultiplexes response frames onto their streams until the
// connection dies, then fails every pending call.
func (fc *framedConn) readLoop() {
	for {
		f, err := fc.cn.ReadFrame()
		if err != nil {
			fc.mu.Lock()
			fc.dead = err
			for id, ch := range fc.streams {
				close(ch)
				delete(fc.streams, id)
			}
			fc.mu.Unlock()
			fc.cn.Close()
			return
		}
		fc.mu.Lock()
		ch, ok := fc.streams[f.Stream]
		if ok {
			delete(fc.streams, f.Stream)
		}
		fc.mu.Unlock()
		if ok {
			// The frame payload aliases the read buffer; hand the stream
			// its own (pooled) copy.
			buf := wire.GetBuf()
			*buf = append((*buf)[:0], f.Payload...)
			ch <- frameResp{t: f.Type, payload: *buf, buf: buf}
		}
	}
}

// call runs one request/response exchange on its own stream. A nil
// error with t == frame.TError never escapes: error envelopes are
// decoded into *APIError. The returned release buffer (when non-nil)
// backs the payload; hand it to putRespBuf once the payload is done
// with. A timeout > 0 bounds the exchange like a per-call context
// deadline, but rides a pooled timer so the hot path allocates nothing.
func (fc *framedConn) call(ctx context.Context, timeout time.Duration, t frame.Type, payload []byte) (frame.Type, []byte, *[]byte, error) {
	fc.mu.Lock()
	if fc.dead != nil {
		err := fc.dead
		fc.mu.Unlock()
		return 0, nil, nil, err
	}
	id := fc.nextID
	fc.nextID++
	ch := respChanPool.Get().(chan frameResp)
	fc.streams[id] = ch
	fc.mu.Unlock()

	if err := fc.cn.WriteFrame(t, id, payload); err != nil {
		fc.forget(id)
		return 0, nil, nil, err
	}

	var timerC <-chan time.Time
	var tm *time.Timer
	if timeout > 0 {
		if v := timerPool.Get(); v != nil {
			tm = v.(*time.Timer)
			tm.Reset(timeout)
		} else {
			tm = time.NewTimer(timeout)
		}
		timerC = tm.C
		defer func() {
			if !tm.Stop() {
				select {
				case <-tm.C:
				default:
				}
			}
			timerPool.Put(tm)
		}()
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			// Closed by the read loop's death; a closed channel cannot be
			// pooled again.
			fc.mu.Lock()
			err := fc.dead
			fc.mu.Unlock()
			if err == nil {
				err = frame.ErrConnClosed
			}
			return 0, nil, nil, err
		}
		respChanPool.Put(ch)
		if resp.t == frame.TError {
			err := decodeFrameError(resp.payload)
			putRespBuf(resp.buf)
			return 0, nil, nil, err
		}
		return resp.t, resp.payload, resp.buf, nil
	case <-ctx.Done():
		// The read loop may still deliver into ch's buffer slot; leave the
		// channel unpooled rather than risk a stale message.
		fc.forget(id)
		return 0, nil, nil, ctx.Err()
	case <-timerC:
		fc.forget(id)
		return 0, nil, nil, context.DeadlineExceeded
	}
}

func (fc *framedConn) forget(id uint64) {
	fc.mu.Lock()
	delete(fc.streams, id)
	fc.mu.Unlock()
}

func (fc *framedConn) close() { fc.cn.Close() }

// decodeFrameError turns a TError payload into the same *APIError the
// JSON path produces, with the status the code travels with there, so
// errors.Is against the hyrec sentinels and the retry rules work
// identically on both transports.
func decodeFrameError(payload []byte) error {
	code, msg, primary, retryMS, err := frame.DecodeError(payload)
	if err != nil {
		return fmt.Errorf("hyrec client: bad framed error envelope: %w", err)
	}
	return &APIError{
		Status: wire.StatusOf(code), Code: code, Message: msg, Primary: primary,
		RetryAfter: time.Duration(retryMS) * time.Millisecond,
	}
}

// getFramed returns the live framed connection, dialing one if needed,
// or nil while the lane is down. A failed dial starts the redial
// backoff so every subsequent request does not pay a connect attempt
// while the listener is down.
func (c *Client) getFramed() *framedConn {
	c.frameMu.Lock()
	defer c.frameMu.Unlock()
	if c.framed != nil {
		c.framed.mu.Lock()
		dead := c.framed.dead
		c.framed.mu.Unlock()
		if dead == nil {
			return c.framed
		}
		c.framed.close()
		c.framed = nil
	}
	if !c.frameDownUntil.IsZero() && time.Now().Before(c.frameDownUntil) {
		return nil
	}
	fc, err := dialFramed(c.frameAddr, c.headers[server.NodeSecretHeader], c.headers[server.ForwardedHeader] != "")
	if err != nil {
		c.frameDownUntil = time.Now().Add(frameRedialBackoff)
		return nil
	}
	c.frameDownUntil = time.Time{}
	c.framed = fc
	return fc
}

// dropFramed discards fc after a mid-stream failure so the next call
// redials (immediately — only dial failures start the backoff).
func (c *Client) dropFramed(fc *framedConn) {
	fc.close()
	c.frameMu.Lock()
	if c.framed == fc {
		c.framed = nil
	}
	c.frameMu.Unlock()
}

// closeFramed tears the framed connection down (Close path).
func (c *Client) closeFramed() {
	c.frameMu.Lock()
	fc := c.framed
	c.framed = nil
	c.frameMu.Unlock()
	if fc != nil {
		fc.close()
	}
}

// attempt is one attempt of cl over fc, decoding a successful answer.
// down reports a transport failure: the caller drops fc and carries on
// over HTTP.
func (fc *framedConn) attempt(ctx context.Context, deadline time.Time, cl *call, payload *[]byte) (down bool, err error) {
	if *payload, err = cl.body((*payload)[:0], true); err != nil {
		return false, err
	}
	// The exchange's deadline rides a pooled per-call timer rather than
	// a derived context, so the framed hot path allocates nothing.
	var timeout time.Duration
	if !deadline.IsZero() {
		if timeout = time.Until(deadline); timeout <= 0 {
			return false, context.DeadlineExceeded
		}
	}
	r := &routes[cl.op]
	rt, raw, buf, err := fc.call(ctx, timeout, r.req, *payload)
	defer putRespBuf(buf)
	if err == nil {
		if rt != r.resp {
			return false, fmt.Errorf("hyrec client: %s answered %#x", r.path, byte(rt))
		}
		return false, cl.answer(raw, true)
	}
	// Anything but the server's answer, the caller's cancellation or the
	// per-call timer is the connection failing.
	_, answered := err.(*APIError)
	return !answered && ctx.Err() == nil && !errors.Is(err, context.DeadlineExceeded), err
}
