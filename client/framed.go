package client

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/frame"
	"hyrec/internal/wire"
)

// The framed transport upgrade (WithFramed): RateBatch, NextJob, Job,
// Ack, ApplyResult and Replicate ride one persistent multiplexed
// binary connection (internal/frame) instead of per-request JSON/HTTP,
// falling back to the JSON path transparently whenever the framed
// connection cannot be dialed or drops mid-exchange. The JSON path
// stays the source of truth for retries and topology re-targeting:
// moved/not_primary answers on the framed lane are redone over JSON.

// nodeSecretHeader mirrors server.NodeSecretHeader (asserted equal in
// the node package's tests, which import both sides): when the client
// carries the node-plane secret header for its HTTP requests, the
// framed handshake presents the same secret.
const nodeSecretHeader = "X-Hyrec-Node-Secret"

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
// caller is done with it. Callers that hand the payload to the user
// (JobRaw) simply skip the release.
func putRespBuf(buf *[]byte) {
	if buf != nil {
		wire.PutBuf(buf)
	}
}

// dialFramed establishes and handshakes one framed connection.
func dialFramed(addr, secret string) (*framedConn, error) {
	nc, err := net.DialTimeout("tcp", addr, frameDialTimeout)
	if err != nil {
		return nil, err
	}
	cn := frame.NewConn(nc, 0)
	cn.SetWriteGrace(frameDialTimeout)
	cn.SetReadDeadline(time.Now().Add(frameDialTimeout))
	if err := cn.WriteFrame(frame.THello, 0, frame.AppendHello(nil, secret)); err != nil {
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
			if code, msg, _, _, derr := frame.DecodeError(f.Payload); derr == nil {
				return nil, fmt.Errorf("hyrec client: framed handshake refused (%s): %s", code, msg)
			}
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
// with, or keep both when the payload escapes to the caller.
// A timeout > 0 bounds the exchange like a per-call context deadline,
// but rides a pooled timer so the hot path allocates nothing.
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
// JSON path produces, so errors.Is against the hyrec sentinels works
// identically on both transports.
func decodeFrameError(payload []byte) error {
	code, msg, primary, retryMS, err := frame.DecodeError(payload)
	if err != nil {
		return fmt.Errorf("hyrec client: bad framed error envelope: %w", err)
	}
	return &APIError{
		Status: statusForCode(code), Code: code, Message: msg, Primary: primary,
		RetryAfter: time.Duration(retryMS) * time.Millisecond,
	}
}

// statusForCode reconstructs the HTTP status the JSON path would have
// carried — the inverse of the server's statusForErr mapping.
func statusForCode(code string) int {
	switch code {
	case wire.CodeStaleEpoch:
		return http.StatusGone
	case wire.CodeUnknownUser, wire.CodeUnknownLease:
		return http.StatusNotFound
	case wire.CodeMoved, wire.CodeNotPrimary:
		return http.StatusMisdirectedRequest
	case wire.CodeForbidden:
		return http.StatusForbidden
	case wire.CodeBadRequest:
		return http.StatusBadRequest
	case wire.CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case wire.CodeOverloaded:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// ---- client integration ----

// getFramed returns the live framed connection, dialing one if needed.
// A failed dial starts the redial backoff so every subsequent request
// does not pay a connect attempt while the listener is down.
func (c *Client) getFramed() (*framedConn, error) {
	c.frameMu.Lock()
	defer c.frameMu.Unlock()
	if c.framed != nil {
		c.framed.mu.Lock()
		dead := c.framed.dead
		c.framed.mu.Unlock()
		if dead == nil {
			return c.framed, nil
		}
		c.framed.close()
		c.framed = nil
	}
	if !c.frameDownUntil.IsZero() && time.Now().Before(c.frameDownUntil) {
		return nil, frame.ErrConnClosed
	}
	fc, err := dialFramed(c.frameAddr, c.headers[nodeSecretHeader])
	if err != nil {
		c.frameDownUntil = time.Now().Add(frameRedialBackoff)
		return nil, err
	}
	c.frameDownUntil = time.Time{}
	c.framed = fc
	return fc, nil
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

// framedCall runs one exchange over the framed lane. handled=false
// means the caller must redo the operation over JSON: the lane is not
// configured, not dialable, the connection dropped mid-exchange, or
// the server answered moved/not_primary (the JSON path owns topology
// re-targeting and retries). A handled typed error surfaces as-is.
func (c *Client) framedCall(ctx context.Context, t frame.Type, payload []byte) (frame.Type, []byte, *[]byte, bool, error) {
	if c.frameAddr == "" {
		return 0, nil, nil, false, nil
	}
	overloadRetried := false
	for {
		fc, err := c.getFramed()
		if err != nil {
			return 0, nil, nil, false, nil
		}
		// Deadline-less contexts get the client-level timeout, exactly like
		// the JSON path's roundTrip — applied as a pooled per-call timer.
		timeout := time.Duration(0)
		if c.timeout > 0 {
			if _, has := ctx.Deadline(); !has {
				timeout = c.timeout
			}
		}
		rt, resp, buf, err := fc.call(ctx, timeout, t, payload)
		if err == nil {
			return rt, resp, buf, true, nil
		}
		if apiErr, ok := err.(*APIError); ok {
			if apiErr.Code == wire.CodeMoved || apiErr.Code == wire.CodeNotPrimary {
				return 0, nil, nil, false, nil
			}
			// The framed twin of roundTrip's overload handling: honor the
			// TError's retry-after hint (capped) and retry exactly once on
			// this lane; a second overloaded answer surfaces as-is rather
			// than falling back to JSON — the HTTP plane shares the same
			// gate, so redoing the request there would just hammer it.
			if apiErr.Code == wire.CodeOverloaded && !overloadRetried && ctx.Err() == nil {
				overloadRetried = true
				if waitOverload(ctx, apiErr.RetryAfter) {
					continue
				}
			}
			return 0, nil, nil, true, err
		}
		if ctx.Err() != nil {
			return 0, nil, nil, true, ctx.Err()
		}
		if err == context.DeadlineExceeded {
			// The pooled per-call timer fired: the client-level timeout
			// elapsed, same surface as the JSON path's deadline.
			return 0, nil, nil, true, err
		}
		// Transport-level failure: drop the connection and let the JSON
		// path (with its retry budget) carry this operation.
		c.dropFramed(fc)
		return 0, nil, nil, false, nil
	}
}

// framedRateBatch ships one ≤MaxBatchRatings chunk as a TRateBatch.
func (c *Client) framedRateBatch(ctx context.Context, ratings []core.Rating) (bool, error) {
	if c.frameAddr == "" {
		return false, nil
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = frame.AppendRateBatch((*buf)[:0], ratings)
	rt, _, rbuf, handled, err := c.framedCall(ctx, frame.TRateBatch, *buf)
	putRespBuf(rbuf)
	if !handled || err != nil {
		return handled, err
	}
	if rt != frame.TRateOK {
		return true, fmt.Errorf("hyrec client: rate batch answered %#x", byte(rt))
	}
	return true, nil
}

// framedJobGet fetches u's job payload (the exact JSON bytes) via
// TJobGet. The payload is backed by rbuf: hand that to putRespBuf once
// the payload is decoded, or keep both when the payload escapes.
func (c *Client) framedJobGet(ctx context.Context, u core.UserID) (resp []byte, rbuf *[]byte, handled bool, err error) {
	var ub [5]byte
	rt, resp, rbuf, handled, err := c.framedCall(ctx, frame.TJobGet, frame.AppendUID(ub[:0], uint32(u)))
	if handled && err == nil && rt != frame.TJob {
		err = fmt.Errorf("hyrec client: job get answered %#x", byte(rt))
	}
	if !handled || err != nil {
		putRespBuf(rbuf)
		return nil, nil, handled, err
	}
	return resp, rbuf, true, nil
}

// framedNextJob runs one TJobPull long-poll of up to wait. A nil job
// with handled=true means the queue stayed idle for the window.
func (c *Client) framedNextJob(ctx context.Context, wait time.Duration) (*wire.Job, bool, error) {
	waitMS := uint64(wait / time.Millisecond)
	var wb [10]byte
	rt, resp, rbuf, handled, err := c.framedCall(ctx, frame.TJobPull, frame.AppendUint(wb[:0], waitMS))
	defer putRespBuf(rbuf)
	if !handled || err != nil {
		return nil, handled, err
	}
	if rt != frame.TJob {
		return nil, true, fmt.Errorf("hyrec client: job pull answered %#x", byte(rt))
	}
	if len(resp) == 0 {
		return nil, true, nil
	}
	job, err := wire.DecodeJob(resp)
	return job, true, err
}

// framedAck completes or abandons one lease as a single-entry
// TAckBatch (the server preserves the typed error surface for these).
func (c *Client) framedAck(ctx context.Context, lease uint64, done bool) (bool, error) {
	var ab [24]byte
	acks := [1]frame.Ack{{Lease: lease, Done: done}}
	payload := frame.AppendAckBatch(ab[:0], acks[:])
	rt, _, rbuf, handled, err := c.framedCall(ctx, frame.TAckBatch, payload)
	putRespBuf(rbuf)
	if !handled || err != nil {
		return handled, err
	}
	if rt != frame.TAckOK {
		return true, fmt.Errorf("hyrec client: ack answered %#x", byte(rt))
	}
	return true, nil
}

// framedApplyResult posts a result as the exact JSON bytes a POST
// /v1/result body would carry and decodes the TRecs answer.
func (c *Client) framedApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, bool, error) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = wire.AppendResult((*buf)[:0], res)
	rt, resp, rbuf, handled, err := c.framedCall(ctx, frame.TResult, *buf)
	defer putRespBuf(rbuf)
	if !handled || err != nil {
		return nil, handled, err
	}
	if rt != frame.TRecs {
		return nil, true, fmt.Errorf("hyrec client: result answered %#x", byte(rt))
	}
	xs, _, err := frame.DecodeU32s(resp, nil, wire.MaxBatchRatings)
	if err != nil {
		return nil, true, fmt.Errorf("hyrec client: bad recs payload: %w", err)
	}
	recs := make([]core.ItemID, len(xs))
	for i, x := range xs {
		recs[i] = core.ItemID(x)
	}
	return recs, true, nil
}

// framedReplicate ships one replication batch as a binary TReplBatch —
// the node-plane hot path.
func (c *Client) framedReplicate(ctx context.Context, b *wire.ReplBatch) (*wire.ReplAck, bool, error) {
	if c.frameAddr == "" {
		return nil, false, nil
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = frame.AppendReplBatch((*buf)[:0], b)
	rt, resp, rbuf, handled, err := c.framedCall(ctx, frame.TReplBatch, *buf)
	defer putRespBuf(rbuf)
	if !handled || err != nil {
		return nil, handled, err
	}
	if rt != frame.TReplOK {
		return nil, true, fmt.Errorf("hyrec client: replicate answered %#x", byte(rt))
	}
	applied, rest, err := cutReplOK(resp)
	if err != nil {
		return nil, true, err
	}
	seq, rest, err := cutReplOK(rest)
	if err != nil {
		return nil, true, err
	}
	// The gap marker is an optional trailing byte (delta shipments only).
	return &wire.ReplAck{Applied: int(applied), Seq: seq, Gap: len(rest) > 0 && rest[0] != 0}, true, nil
}

func cutReplOK(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("hyrec client: bad repl ack payload")
	}
	return v, data[n:], nil
}
