// Package client is the typed Go client of HyRec's versioned wire
// protocol (/v1, see internal/wire). It implements hyrec.Service, so
// code written against the interface — replay harnesses, load
// generators, applications — runs unchanged against a remote server:
//
//	c := client.New("http://localhost:8080",
//		client.WithRetries(3, 50*time.Millisecond),
//		client.WithBatch(128, 100*time.Millisecond))
//	defer c.Close()
//
//	c.Rate(ctx, 42, 7, true)          // buffered, flushed as a batch
//	job, _ := c.Job(ctx, 42)          // GET /v1/job (gzip-negotiated)
//	res, _ := widget.Execute(job)
//	recs, _ := c.ApplyResult(ctx, res)
//
// The client reuses connections (one shared Transport with idle
// pooling), batches ratings to amortize per-request overhead, retries
// transient failures with exponential backoff, and honours context
// deadlines on every request.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hyrec"
	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// maxResponseBytes caps how much of any response the client will read —
// far above any legitimate payload, purely a runaway-peer guard.
const maxResponseBytes = 64 << 20

// Client speaks the /v1 protocol to one HyRec server. Safe for
// concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	ownsHC  bool
	retries int
	backoff time.Duration
	timeout time.Duration
	headers map[string]string

	// Rating batcher (enabled by WithBatch).
	batchSize  int
	flushEvery time.Duration

	mu       sync.Mutex
	buf      []core.Rating
	flushErr error // first asynchronous flush failure, surfaced on next call
	closed   bool
	stopCh   chan struct{}
	wg       sync.WaitGroup

	// topo caches the last topology fetched from GET /v1/topology —
	// refreshed automatically when the server answers CodeMoved.
	topoMu sync.Mutex
	topo   *wire.Topology

	// Framed transport (WithFramed, see framed.go): the persistent
	// multiplexed binary connection the hot wire paths prefer.
	frameAddr      string
	frameMu        sync.Mutex
	framed         *framedConn
	frameDownUntil time.Time
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (connection
// pool, TLS, proxies). The caller keeps ownership: Close will not close
// its idle connections.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc; c.ownsHC = false }
}

// WithTimeout sets the per-request deadline applied when the caller's
// context has none (default 30s; 0 disables).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithHeader attaches a fixed header to every request — e.g. the
// forwarded marker a node sets on proxied traffic (server.ForwardedHeader)
// so the receiving node rejects instead of proxying again.
func WithHeader(key, value string) Option {
	return func(c *Client) {
		if c.headers == nil {
			c.headers = make(map[string]string)
		}
		c.headers[key] = value
	}
}

// WithRetries makes transient failures (network errors, HTTP 5xx) retry
// up to n additional attempts with exponential backoff starting at
// backoff. Contexts are honoured while sleeping.
func WithRetries(n int, backoff time.Duration) Option {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.retries = n
		c.backoff = backoff
	}
}

// WithBatch buffers Rate calls and flushes them as one POST /v1/rate
// when size ratings accumulate or flushEvery elapses, whichever is
// first — the amortization path that makes per-rating overhead
// negligible. Flush and Close force pending ratings out. size is capped
// at the protocol's MaxBatchRatings.
func WithBatch(size int, flushEvery time.Duration) Option {
	return func(c *Client) {
		if size < 1 {
			size = 1
		}
		if size > wire.MaxBatchRatings {
			size = wire.MaxBatchRatings
		}
		c.batchSize = size
		c.flushEvery = flushEvery
	}
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080"; a trailing slash is tolerated).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
				// The client negotiates gzip explicitly so it can reuse
				// wire.Decompress and meter exactly what crossed the wire.
				DisableCompression: true,
			},
		},
		ownsHC:  true,
		timeout: 30 * time.Second,
		stopCh:  make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.batchSize > 0 && c.flushEvery > 0 {
		c.wg.Add(1)
		go c.flushLoop()
	}
	return c
}

// Compile-time guarantee: a remote client is a drop-in Service, and a
// lease-aware one — Worker drives the scheduler through these.
var (
	_ hyrec.Service    = (*Client)(nil)
	_ hyrec.JobSource  = (*Client)(nil)
	_ hyrec.LeaseAcker = (*Client)(nil)
)

// APIError is a non-2xx response carrying the server's typed error
// envelope. errors.Is maps the protocol codes onto the package-level
// sentinels (hyrec.ErrStaleEpoch, hyrec.ErrUnknownUser).
type APIError struct {
	Status  int    // HTTP status code
	Code    string // machine code from the envelope (wire.Code*)
	Message string
	// Primary is the owning node's address on not_primary answers (empty
	// otherwise) — the re-target hint of multi-node deployments.
	Primary string
	// RetryAfter is the server's backoff hint on overloaded answers
	// (zero otherwise). The client honors it — capped — before its
	// single overload retry; callers shedding work themselves should
	// wait at least this long too.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("hyrec client: server returned %d (%s): %s", e.Status, e.Code, e.Message)
}

// Is maps envelope codes onto the Service sentinel errors.
func (e *APIError) Is(target error) bool {
	switch target {
	case hyrec.ErrStaleEpoch:
		return e.Code == wire.CodeStaleEpoch
	case hyrec.ErrUnknownUser:
		return e.Code == wire.CodeUnknownUser
	case hyrec.ErrUnknownLease:
		return e.Code == wire.CodeUnknownLease
	case hyrec.ErrMoved:
		return e.Code == wire.CodeMoved
	case hyrec.ErrNotPrimary:
		return e.Code == wire.CodeNotPrimary
	case hyrec.ErrOverloaded:
		return e.Code == wire.CodeOverloaded
	}
	return false
}

// Rate implements hyrec.Service. With batching enabled the rating is
// buffered and the call returns once it is enqueued (flushing inline
// when the buffer fills); otherwise it is a one-element RateBatch.
func (c *Client) Rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error {
	r := core.Rating{User: u, Item: item, Liked: liked}
	if c.batchSize <= 0 {
		return c.RateBatch(ctx, []core.Rating{r})
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("hyrec client: closed")
	}
	// Buffer first, then surface any asynchronous flush failure: the
	// returned error reports the *previous* batch — this rating stays
	// queued and goes out with the next flush.
	c.buf = append(c.buf, r)
	var pending []core.Rating
	if len(c.buf) >= c.batchSize {
		pending = c.buf
		c.buf = nil
	}
	err := c.flushErr
	c.flushErr = nil
	c.mu.Unlock()
	if pending != nil {
		if ferr := c.RateBatch(ctx, pending); err == nil {
			err = ferr
		}
	}
	return err
}

// Flush sends any buffered ratings now.
func (c *Client) Flush(ctx context.Context) error {
	c.mu.Lock()
	pending := c.buf
	c.buf = nil
	err := c.flushErr
	c.flushErr = nil
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if len(pending) == 0 {
		return nil
	}
	return c.RateBatch(ctx, pending)
}

func (c *Client) flushLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.flushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			c.mu.Lock()
			pending := c.buf
			c.buf = nil
			c.mu.Unlock()
			if len(pending) == 0 {
				continue
			}
			if err := c.RateBatch(context.Background(), pending); err != nil {
				c.mu.Lock()
				if c.flushErr == nil {
					c.flushErr = err
				}
				c.mu.Unlock()
			}
		case <-c.stopCh:
			return
		}
	}
}

// RateBatch implements hyrec.Service: one POST /v1/rate for the whole
// slice. Batches beyond the protocol limit are split transparently.
func (c *Client) RateBatch(ctx context.Context, ratings []core.Rating) error {
	for len(ratings) > 0 {
		n := len(ratings)
		if n > wire.MaxBatchRatings {
			n = wire.MaxBatchRatings
		}
		if handled, err := c.framedRateBatch(ctx, ratings[:n]); handled {
			if err != nil {
				return err
			}
			ratings = ratings[n:]
			continue
		}
		req := wire.RateRequest{Ratings: make([]wire.RatingMsg, n)}
		for i, r := range ratings[:n] {
			req.Ratings[i] = wire.RatingMsg{UID: uint32(r.User), Item: uint32(r.Item), Liked: r.Liked}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return fmt.Errorf("hyrec client: marshal batch: %w", err)
		}
		var resp wire.RateResponse
		if err := c.do(ctx, http.MethodPost, "/v1/rate", body, &resp); err != nil {
			return err
		}
		ratings = ratings[n:]
	}
	return nil
}

// Job implements hyrec.Service: GET /v1/job with gzip negotiation (or
// one TJobGet exchange when the framed transport is up — the payload
// bytes are identical either way).
func (c *Client) Job(ctx context.Context, u core.UserID) (*wire.Job, error) {
	if raw, rbuf, handled, err := c.framedJobGet(ctx, u); handled {
		if err != nil {
			return nil, err
		}
		defer putRespBuf(rbuf)
		return wire.DecodeJob(raw)
	}
	return c.getJob(ctx, jobPath(u))
}

func jobPath(u core.UserID) string {
	return "/v1/job?uid=" + strconv.FormatUint(uint64(u), 10)
}

// JobRaw fetches u's job payload as the exact JSON bytes the server
// serialized (after transport decompression) — the proxy path of a
// multi-node deployment, where re-encoding would break the byte-identity
// the payload cache guarantees.
func (c *Client) JobRaw(ctx context.Context, u core.UserID) ([]byte, error) {
	if raw, _, handled, err := c.framedJobGet(ctx, u); handled {
		// The payload escapes: its backing buffer leaves the pool with it.
		return raw, err
	}
	rb := getRespBufs()
	defer rb.release()
	raw, err := c.roundTrip(ctx, http.MethodGet, jobPath(u), nil, true, rb)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(raw), nil
}

// NextJob implements hyrec.JobSource remotely: GET /v1/job?worker=1,
// long-polling the server's staleness queue until ctx is done (the
// server caps each poll; the loop re-issues requests until then). It
// returns (nil, nil) when ctx expires with no work — matching the
// in-process contract.
func (c *Client) NextJob(ctx context.Context) (*wire.Job, error) {
	// rttMargin is shaved off the server-side wait so a job dispatched at
	// the very end of the window still gets its response back inside the
	// client deadline (a lost response would burn the lease until expiry).
	// Budgets shorter than twice the margin long-poll for half their
	// remainder instead, so short-poll callers still park server-side.
	const rttMargin = 300 * time.Millisecond
	retried := false // see pollError
	for {
		wait := 15 * time.Second
		// A deadline-less ctx still gets the client-level timeout inside
		// roundTrip; cap the server-side wait under it too, or the
		// request would be cancelled mid-poll and a job dispatched in
		// the gap would burn its lease.
		if c.timeout > 0 && c.timeout-rttMargin < wait {
			wait = c.timeout - rttMargin
			if wait < c.timeout/2 {
				wait = c.timeout / 2
			}
		}
		if dl, ok := ctx.Deadline(); ok {
			remain := time.Until(dl)
			if remain <= 0 {
				return nil, nil
			}
			w := remain - rttMargin
			if w < remain/2 {
				w = remain / 2
			}
			if w < wait {
				wait = w
			}
		}
		if job, handled, err := c.framedNextJob(ctx, wait); handled {
			if err != nil {
				if retry, perr := pollError(ctx, err, &retried); !retry {
					return nil, perr
				}
				continue
			}
			if job == nil {
				// The queue stayed empty for this framed poll.
				if ctx.Err() != nil || !c.hasDeadline(ctx) {
					return nil, nil
				}
				continue
			}
			return job, nil
		}
		job, err := c.getJob(ctx, "/v1/job?worker=1&wait="+wait.Truncate(time.Millisecond).String())
		if err != nil {
			if retry, perr := pollError(ctx, err, &retried); !retry {
				return nil, perr
			}
			continue
		}
		if job == nil {
			// 204: the queue stayed empty for this poll.
			if ctx.Err() != nil || !c.hasDeadline(ctx) {
				return nil, nil
			}
			continue
		}
		return job, nil
	}
}

// pollError decides what a failed NextJob poll means. Any error once ctx
// is done, and a deadline error once ctx's deadline has passed, only say
// the poll ran out of time: an empty poll, reported as (false, nil). The
// transport can see the deadline before ctx's own timer marks ctx done.
// A deadline error while the poll still has time is not this poll's: it
// is the cancellation of an earlier poll that expired as its connection
// went back to the idle pool, surfacing on the request that reused it.
// That one is retried, once per NextJob call (retry=true); anything else
// is returned as it is.
func pollError(ctx context.Context, err error, retried *bool) (retry bool, _ error) {
	if ctx.Err() != nil {
		return false, nil
	}
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, os.ErrDeadlineExceeded) {
		return false, err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return false, nil
	}
	if !*retried {
		*retried = true
		return true, nil
	}
	return false, err
}

// hasDeadline reports whether ctx bounds the long-poll loop; without one
// NextJob returns after a single server-side poll rather than spinning
// forever.
func (c *Client) hasDeadline(ctx context.Context) bool {
	_, ok := ctx.Deadline()
	return ok
}

// Ack implements hyrec.LeaseAcker remotely: POST /v1/ack.
func (c *Client) Ack(ctx context.Context, lease uint64, done bool) error {
	if handled, err := c.framedAck(ctx, lease, done); handled {
		return err
	}
	body, err := json.Marshal(&wire.AckRequest{Lease: lease, Done: done})
	if err != nil {
		return fmt.Errorf("hyrec client: marshal ack: %w", err)
	}
	var out wire.AckResponse
	return c.do(ctx, http.MethodPost, "/v1/ack", body, &out)
}

// ApplyResult implements hyrec.Service: POST /v1/result, returning the
// recommendations the server resolved.
func (c *Client) ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error) {
	if recs, handled, err := c.framedApplyResult(ctx, res); handled {
		return recs, err
	}
	body, err := wire.EncodeResult(res)
	if err != nil {
		return nil, fmt.Errorf("hyrec client: marshal result: %w", err)
	}
	var out wire.RecsResponse
	if err := c.do(ctx, http.MethodPost, "/v1/result", body, &out); err != nil {
		return nil, err
	}
	recs := make([]core.ItemID, len(out.Recs))
	for i, it := range out.Recs {
		recs[i] = core.ItemID(it)
	}
	return recs, nil
}

// Recommendations implements hyrec.Service: GET /v1/recs.
func (c *Client) Recommendations(ctx context.Context, u core.UserID, n int) ([]core.ItemID, error) {
	path := "/v1/recs?uid=" + strconv.FormatUint(uint64(u), 10)
	if n > 0 {
		path += "&n=" + strconv.Itoa(n)
	}
	var out wire.RecsResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	recs := make([]core.ItemID, len(out.Recs))
	for i, it := range out.Recs {
		recs[i] = core.ItemID(it)
	}
	return recs, nil
}

// Topology fetches the server's current topology (GET /v1/topology):
// partition count, ring parameter, and whether a live resharding is in
// progress. The result is also cached for CachedTopology.
func (c *Client) Topology(ctx context.Context) (*wire.Topology, error) {
	var out wire.Topology
	if err := c.do(ctx, http.MethodGet, "/v1/topology", nil, &out); err != nil {
		return nil, err
	}
	c.topoMu.Lock()
	c.topo = &out
	c.topoMu.Unlock()
	return &out, nil
}

// Scale asks the server to reshape to the given partition count
// (POST /v1/topology) and returns the resulting topology once the
// migration has completed — the admin client of a live resharding.
func (c *Client) Scale(ctx context.Context, partitions int) (*wire.Topology, error) {
	body, err := json.Marshal(&wire.ScaleRequest{Partitions: partitions})
	if err != nil {
		return nil, fmt.Errorf("hyrec client: marshal scale: %w", err)
	}
	var out wire.Topology
	if err := c.do(ctx, http.MethodPost, "/v1/topology", body, &out); err != nil {
		return nil, err
	}
	c.topoMu.Lock()
	c.topo = &out
	c.topoMu.Unlock()
	return &out, nil
}

// CachedTopology returns the last topology observed (nil before any
// fetch). The cache refreshes on explicit Topology calls and whenever
// the server answers CodeMoved.
func (c *Client) CachedTopology() *wire.Topology {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	return c.topo
}

// Replicate ships one replication batch to the node at the other end
// (POST /v1/replicate) — the node-plane call a primary partition uses to
// keep its replica mirror current.
func (c *Client) Replicate(ctx context.Context, b *wire.ReplBatch) (*wire.ReplAck, error) {
	if ack, handled, err := c.framedReplicate(ctx, b); handled {
		return ack, err
	}
	body, err := wire.EncodeReplBatch(b)
	if err != nil {
		return nil, fmt.Errorf("hyrec client: marshal repl batch: %w", err)
	}
	var out wire.ReplAck
	if err := c.do(ctx, http.MethodPost, "/v1/replicate", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PushNodeMap publishes a node map to the node at the other end
// (POST /v1/nodes) — the failover coordinator's re-publication call.
func (c *Client) PushNodeMap(ctx context.Context, m *wire.NodeMap) error {
	body, err := wire.EncodeNodeMap(m)
	if err != nil {
		return fmt.Errorf("hyrec client: marshal node map: %w", err)
	}
	var out wire.AckResponse
	return c.do(ctx, http.MethodPost, "/v1/nodes", body, &out)
}

// Neighbors implements hyrec.Service: GET /v1/neighbors.
func (c *Client) Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error) {
	var out wire.NeighborsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/neighbors?uid="+strconv.FormatUint(uint64(u), 10), nil, &out); err != nil {
		return nil, err
	}
	hood := make([]core.UserID, len(out.Neighbors))
	for i, v := range out.Neighbors {
		hood[i] = core.UserID(v)
	}
	return hood, nil
}

// Close flushes buffered ratings, stops the flush loop and releases
// idle connections. Safe to call multiple times.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	pending := c.buf
	c.buf = nil
	err := c.flushErr
	c.flushErr = nil
	close(c.stopCh)
	c.mu.Unlock()
	c.wg.Wait()
	if len(pending) > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if ferr := c.RateBatch(ctx, pending); err == nil {
			err = ferr
		}
	}
	c.closeFramed()
	if c.ownsHC {
		c.hc.CloseIdleConnections()
	}
	return err
}

// ---- transport plumbing ----

// respBufs are the two pooled buffers one HTTP exchange reads into: the
// body as it crossed the wire and, for a gzip answer, its inflated
// form. The bytes roundTrip returns alias one of them and are good
// until release; whatever outlives the exchange is decoded or copied
// out first.
type respBufs struct{ body, plain *[]byte }

func getRespBufs() respBufs { return respBufs{body: wire.GetBuf(), plain: wire.GetBuf()} }

func (rb respBufs) release() {
	wire.PutBuf(rb.body)
	wire.PutBuf(rb.plain)
}

// do issues one JSON request/response exchange with retries, decoding a
// success body into out (ignored when out is nil).
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	rb := getRespBufs()
	defer rb.release()
	raw, err := c.roundTrip(ctx, method, path, body, false, rb)
	if err != nil {
		return err
	}
	if out == nil || len(raw) == 0 {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("hyrec client: decode %s response: %w", path, err)
	}
	return nil
}

// getJob issues a gzip-negotiated GET and decodes the job it answers
// with; a bodyless answer (204) is a nil job. Both buffers go back to
// the pool on return — a decoded job aliases neither.
func (c *Client) getJob(ctx context.Context, path string) (*wire.Job, error) {
	rb := getRespBufs()
	defer rb.release()
	raw, err := c.roundTrip(ctx, http.MethodGet, path, nil, true, rb)
	if err != nil || len(raw) == 0 {
		return nil, err
	}
	return wire.DecodeJob(raw)
}

// roundTrip is the retrying core. Attempts are considered retryable on
// network errors and 5xx responses; 4xx envelopes surface immediately.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, negotiateGzip bool, rb respBufs) ([]byte, error) {
	if c.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	backoff := c.backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	movedRetried := false
	overloadRetried := false
	base := c.base
	for attempt := 0; ; attempt++ {
		raw, retryable, err := c.attemptAt(ctx, base, method, path, body, negotiateGzip, rb)
		if err == nil {
			return raw, nil
		}
		lastErr = err
		// CodeMoved / CodeNotPrimary: the user's state migrated to a
		// different partition — or the node answering no longer serves it
		// as primary — mid-flight. Refetch the topology (so routing
		// caches catch up) and retry exactly once; a not_primary envelope
		// naming the primary's address re-targets the retry directly. A
		// second such answer means the request is a pre-change straggler
		// and surfaces as-is.
		var apiErr *APIError
		if !movedRetried && ctx.Err() == nil && errors.As(err, &apiErr) &&
			(apiErr.Code == wire.CodeMoved || apiErr.Code == wire.CodeNotPrimary) &&
			!strings.HasSuffix(path, "/v1/topology") {
			movedRetried = true
			if apiErr.Primary != "" {
				base = strings.TrimRight(apiErr.Primary, "/")
			}
			c.refreshTopology(ctx)
			attempt-- // the moved retry does not consume the transient budget
			continue
		}
		// CodeOverloaded: the server's admission gate shed the request.
		// Honor the envelope's retry-after hint (capped) and retry exactly
		// once — hammering a shedding server defeats the gate's purpose,
		// so a second overloaded answer surfaces as-is.
		if !overloadRetried && ctx.Err() == nil && errors.As(err, &apiErr) &&
			apiErr.Code == wire.CodeOverloaded {
			overloadRetried = true
			if waitOverload(ctx, apiErr.RetryAfter) {
				attempt-- // like the moved retry: outside the transient budget
				continue
			}
			return nil, lastErr
		}
		if !retryable || attempt >= c.retries || ctx.Err() != nil {
			return nil, lastErr
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff << attempt):
		}
	}
}

func (c *Client) attemptAt(ctx context.Context, base, method, path string, body []byte, negotiateGzip bool, rb respBufs) (raw []byte, retryable bool, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, false, fmt.Errorf("hyrec client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if negotiateGzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	for k, v := range c.headers {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("hyrec client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	// Responses are not bounded by the request-body cap (a large
	// candidate set can legitimately exceed it); the generous limit
	// only guards against a runaway peer, and overflowing it is an
	// explicit error rather than a silent truncation.
	data, err := readBody((*rb.body)[:0], resp)
	*rb.body = data
	if errors.Is(err, wire.ErrTooLarge) {
		return nil, false, fmt.Errorf("hyrec client: %s response: %w", path, err)
	}
	if err != nil {
		return nil, true, fmt.Errorf("hyrec client: read %s response: %w", path, err)
	}
	if resp.StatusCode >= 400 {
		return nil, resp.StatusCode >= 500, decodeAPIError(resp.StatusCode, data)
	}
	if strings.Contains(resp.Header.Get("Content-Encoding"), "gzip") {
		data, err = wire.AppendDecompress((*rb.plain)[:0], data)
		*rb.plain = data
		if err != nil {
			return nil, false, fmt.Errorf("hyrec client: decompress %s: %w", path, err)
		}
	}
	return data, false, nil
}

// readBody appends a response body to dst: in one read when the server
// declared its length (dst is grown to it once and keeps that capacity
// in the pool), by doubling otherwise. More than maxResponseBytes fails
// with an error wrapping wire.ErrTooLarge.
func readBody(dst []byte, resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n > maxResponseBytes {
		return dst, fmt.Errorf("%w: %d bytes, limit %d", wire.ErrTooLarge, n, maxResponseBytes)
	} else if n > 0 {
		// One spare byte, so the read that reports EOF has room to not
		// fill and the buffer is never grown for it.
		dst = slices.Grow(dst, int(n)+1)
	}
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, max(512, len(dst)))
		}
		n, err := resp.Body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst) > maxResponseBytes {
			return dst, fmt.Errorf("%w: more than %d bytes", wire.ErrTooLarge, maxResponseBytes)
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// overloadBackoffCap bounds how long the client honors a server's
// retry-after hint before its single overload retry — a hostile or
// misconfigured hint cannot park a caller for minutes. Variable for
// tests.
var overloadBackoffCap = 2 * time.Second

// waitOverload sleeps the server's retry-after hint (the default when
// the hint is absent, capped always) before the one overload retry.
// false means ctx expired first and the caller should surface the
// overloaded error instead of retrying.
func waitOverload(ctx context.Context, hint time.Duration) bool {
	if hint <= 0 {
		hint = time.Second
	}
	if hint > overloadBackoffCap {
		hint = overloadBackoffCap
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(hint):
		return true
	}
}

// refreshTopology best-effort-updates the topology cache after a moved
// answer; failures are swallowed (the retry surfaces the real error).
func (c *Client) refreshTopology(ctx context.Context) {
	rb := getRespBufs()
	defer rb.release()
	raw, _, err := c.attemptAt(ctx, c.base, http.MethodGet, "/v1/topology", nil, false, rb)
	if err != nil {
		return
	}
	var t wire.Topology
	if json.Unmarshal(raw, &t) == nil {
		c.topoMu.Lock()
		c.topo = &t
		c.topoMu.Unlock()
	}
}

func decodeAPIError(status int, body []byte) error {
	var env wire.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &APIError{
			Status: status, Code: env.Error.Code, Message: env.Error.Message, Primary: env.Error.Primary,
			RetryAfter: time.Duration(env.Error.RetryAfterMS) * time.Millisecond,
		}
	}
	// Legacy plain-text error (or proxy junk): keep the raw text.
	return &APIError{Status: status, Code: wire.CodeInternal, Message: strings.TrimSpace(string(body))}
}
