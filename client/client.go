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
//	job, _ := c.Job(ctx, 42)          // GET /v1/job (job format 3)
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
	"hyrec/internal/frame"
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

// WithHeader attaches a fixed header to every HTTP request — e.g. the
// forwarded marker a node sets on proxied traffic (server.ForwardedHeader)
// so the receiving node rejects instead of proxying again. That marker
// and the node-plane secret (server.NodeSecretHeader) also travel in the
// framed lane's hello.
func WithHeader(key, value string) Option {
	return func(c *Client) {
		if c.headers == nil {
			c.headers = make(map[string]string)
		}
		c.headers[key] = value
	}
}

// WithRetries makes transient failures (network errors, 5xx and
// internal answers, on either lane) retry up to n additional attempts
// with exponential backoff starting at backoff. Contexts are honoured
// while sleeping.
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
				// Nothing the client asks for is gzipped (jobs are job
				// format 3, bare); the Transport must not ask on its own.
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

// RateBatch implements hyrec.Service: one POST /v1/rate (or TRateBatch)
// for the whole slice. Batches beyond the protocol limit are split
// transparently.
func (c *Client) RateBatch(ctx context.Context, ratings []core.Rating) error {
	for len(ratings) > 0 {
		chunk := ratings[:min(len(ratings), wire.MaxBatchRatings)]
		ratings = ratings[len(chunk):]
		err := c.exchange(ctx, &call{op: opRate, encode: func(dst []byte, framed bool) ([]byte, error) {
			if framed {
				return frame.AppendRateBatch(dst, chunk), nil
			}
			req := wire.RateRequest{Ratings: make([]wire.RatingMsg, len(chunk))}
			for i, r := range chunk {
				req.Ratings[i] = wire.RatingMsg{UID: uint32(r.User), Item: uint32(r.Item), Liked: r.Liked}
			}
			return json.Marshal(&req)
		}})
		if err != nil {
			return err
		}
	}
	return nil
}

// Job implements hyrec.Service: GET /v1/job, or one TJobGet exchange —
// the format-3 payload bytes are identical either way.
func (c *Client) Job(ctx context.Context, u core.UserID) (job *wire.Job, err error) {
	err = c.job(ctx, u, func(raw []byte, _ bool) (err error) {
		job, err = wire.DecodeJob(raw)
		return err
	})
	return job, err
}

// JobRaw fetches u's job payload as the exact format-3 bytes the server
// serialized — the proxy path of a multi-node deployment, where
// re-encoding would break the byte-identity the payload cache
// guarantees.
func (c *Client) JobRaw(ctx context.Context, u core.UserID) (raw []byte, err error) {
	err = c.job(ctx, u, func(b []byte, _ bool) error {
		raw = bytes.Clone(b)
		return nil
	})
	return raw, err
}

func (c *Client) job(ctx context.Context, u core.UserID, decode func([]byte, bool) error) error {
	return c.exchange(ctx, &call{op: opJob, query: "?uid=" + strconv.FormatUint(uint64(u), 10), decode: decode,
		encode: func(dst []byte, framed bool) ([]byte, error) {
			if framed {
				dst = frame.AppendUID(dst, uint32(u))
			}
			return dst, nil
		}})
}

// NextJob implements hyrec.JobSource remotely: GET /v1/job?worker=1 (or
// TJobPull), long-polling the server's staleness queue until ctx is
// done (the server caps each poll; the loop re-issues requests until
// then). It returns (nil, nil) when ctx expires with no work — matching
// the in-process contract.
func (c *Client) NextJob(ctx context.Context) (*wire.Job, error) {
	// rttMargin is shaved off the server-side wait so a job dispatched at
	// the very end of the window still gets its response back inside the
	// client deadline (a lost response would burn the lease until expiry).
	// Budgets shorter than twice the margin long-poll for half their
	// remainder instead, so short-poll callers still park server-side.
	const rttMargin = 300 * time.Millisecond
	pollWait := func(budget time.Duration) time.Duration { return max(budget-rttMargin, budget/2) }
	retried := false // see pollError
	for {
		wait := 15 * time.Second
		// A deadline-less ctx still gets the client-level timeout inside
		// the exchange; cap the server-side wait under it too, or the
		// request would be cancelled mid-poll and a job dispatched in
		// the gap would burn its lease.
		if c.timeout > 0 {
			wait = min(wait, pollWait(c.timeout))
		}
		dl, hasDeadline := ctx.Deadline()
		if hasDeadline {
			remain := time.Until(dl)
			if remain <= 0 {
				return nil, nil
			}
			wait = min(wait, pollWait(remain))
		}
		var job *wire.Job
		err := c.exchange(ctx, &call{op: opNextJob,
			query: "?worker=1&wait=" + wait.Truncate(time.Millisecond).String(),
			encode: func(dst []byte, framed bool) ([]byte, error) {
				if framed {
					dst = frame.AppendUint(dst, uint64(wait/time.Millisecond))
				}
				return dst, nil
			},
			decode: func(raw []byte, _ bool) (err error) {
				if len(raw) > 0 { // empty: the queue stayed idle for this poll
					job, err = wire.DecodeJob(raw)
				}
				return err
			}})
		switch {
		case err != nil:
			if retry, perr := pollError(ctx, err, &retried); !retry {
				return nil, perr
			}
		case job != nil:
			return job, nil
		case ctx.Err() != nil || !hasDeadline:
			return nil, nil
		}
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

// Ack implements hyrec.LeaseAcker remotely: POST /v1/ack, or a
// single-entry TAckBatch (the server keeps the typed error surface for
// those).
func (c *Client) Ack(ctx context.Context, lease uint64, done bool) error {
	return c.exchange(ctx, &call{op: opAck, encode: func(dst []byte, framed bool) ([]byte, error) {
		if framed {
			return frame.AppendAckBatch(dst, []frame.Ack{{Lease: lease, Done: done}}), nil
		}
		return json.Marshal(&wire.AckRequest{Lease: lease, Done: done})
	}})
}

// ApplyResult implements hyrec.Service: POST /v1/result (or TResult,
// whose payload is the same JSON body), returning the recommendations
// the server resolved.
func (c *Client) ApplyResult(ctx context.Context, res *wire.Result) (recs []core.ItemID, err error) {
	err = c.exchange(ctx, &call{op: opResult, decode: decodeRecs(&recs),
		encode: func(dst []byte, _ bool) ([]byte, error) { return wire.AppendResult(dst, res), nil }})
	return recs, err
}

// Recommendations implements hyrec.Service: GET /v1/recs.
func (c *Client) Recommendations(ctx context.Context, u core.UserID, n int) (recs []core.ItemID, err error) {
	query := "?uid=" + strconv.FormatUint(uint64(u), 10)
	if n > 0 {
		query += "&n=" + strconv.Itoa(n)
	}
	err = c.exchange(ctx, &call{op: opRecs, query: query, decode: decodeRecs(&recs)})
	return recs, err
}

// decodeRecs reads a recommendations answer into recs: a TRecs payload
// or a RecsResponse.
func decodeRecs(recs *[]core.ItemID) func([]byte, bool) error {
	return func(raw []byte, framed bool) (err error) {
		var out wire.RecsResponse
		if framed {
			out.Recs, _, err = frame.DecodeU32s(raw, nil, wire.MaxBatchRatings)
		} else {
			err = json.Unmarshal(raw, &out)
		}
		*recs = ids[core.ItemID](out.Recs)
		return err
	}
}

// ids converts wire identifiers to typed ones.
func ids[T core.ItemID | core.UserID](xs []uint32) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = T(x)
	}
	return out
}

// Topology fetches the server's current topology (GET /v1/topology):
// partition count, ring parameter, and whether a live resharding is in
// progress. The result is also cached for CachedTopology.
func (c *Client) Topology(ctx context.Context) (*wire.Topology, error) {
	return c.topology(ctx, &call{op: opTopology})
}

// Scale asks the server to reshape to the given partition count
// (POST /v1/topology) and returns the resulting topology once the
// migration has completed — the admin client of a live resharding.
func (c *Client) Scale(ctx context.Context, partitions int) (*wire.Topology, error) {
	return c.topology(ctx, &call{op: opScale, encode: jsonBody(&wire.ScaleRequest{Partitions: partitions})})
}

// topology runs a call the server answers with its topology, and caches
// the answer.
func (c *Client) topology(ctx context.Context, cl *call) (*wire.Topology, error) {
	var t wire.Topology
	cl.decode = jsonInto(&t)
	if err := c.exchange(ctx, cl); err != nil {
		return nil, err
	}
	c.topoMu.Lock()
	c.topo = &t
	c.topoMu.Unlock()
	return &t, nil
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
// (POST /v1/replicate, or a binary TReplBatch) — the node-plane call a
// primary partition uses to keep its replica mirror current.
func (c *Client) Replicate(ctx context.Context, b *wire.ReplBatch) (ack *wire.ReplAck, err error) {
	err = c.exchange(ctx, &call{op: opReplicate,
		encode: func(dst []byte, framed bool) ([]byte, error) {
			if framed {
				return frame.AppendReplBatch(dst, b), nil
			}
			return json.Marshal(b)
		},
		decode: func(raw []byte, framed bool) (err error) {
			if framed {
				ack, err = decodeReplOK(raw)
				return err
			}
			ack = new(wire.ReplAck)
			return json.Unmarshal(raw, ack)
		}})
	return ack, err
}

// PushNodeMap publishes a node map to the node at the other end
// (POST /v1/nodes) — the failover coordinator's re-publication call.
func (c *Client) PushNodeMap(ctx context.Context, m *wire.NodeMap) error {
	return c.exchange(ctx, &call{op: opNodes, encode: jsonBody(m)})
}

// Neighbors implements hyrec.Service: GET /v1/neighbors.
func (c *Client) Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error) {
	var out wire.NeighborsResponse
	if err := c.exchange(ctx, &call{op: opNeighbors, query: "?uid=" + strconv.FormatUint(uint64(u), 10), decode: jsonInto(&out)}); err != nil {
		return nil, err
	}
	return ids[core.UserID](out.Neighbors), nil
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

// ---- the exchange ----

// The client's operation table: each op's HTTP method and path and its
// framed request and answer types (zero for an op the framed lane does
// not carry). A call names its row by index, so nothing of the call
// itself outlives it.
type op uint8

const (
	opRate op = iota
	opJob
	opNextJob
	opAck
	opResult
	opReplicate
	opRecs
	opNeighbors
	opTopology
	opScale
	opNodes
)

type route struct {
	method, path string
	req, resp    frame.Type
}

var routes = [...]route{
	opRate:      {http.MethodPost, "/v1/rate", frame.TRateBatch, frame.TRateOK},
	opJob:       {http.MethodGet, "/v1/job", frame.TJobGet, frame.TJob},
	opNextJob:   {http.MethodGet, "/v1/job", frame.TJobPull, frame.TJob},
	opAck:       {http.MethodPost, "/v1/ack", frame.TAckBatch, frame.TAckOK},
	opResult:    {http.MethodPost, "/v1/result", frame.TResult, frame.TRecs},
	opReplicate: {http.MethodPost, "/v1/replicate", frame.TReplBatch, frame.TReplOK},
	opRecs:      {method: http.MethodGet, path: "/v1/recs"},
	opNeighbors: {method: http.MethodGet, path: "/v1/neighbors"},
	opTopology:  {method: http.MethodGet, path: "/v1/topology"},
	opScale:     {method: http.MethodPost, path: "/v1/topology"},
	opNodes:     {method: http.MethodPost, path: "/v1/nodes"},
}

// A call is one invocation of an op: what differs by lane is how the
// request is encoded and how the answer is decoded. encode appends the
// request body in the lane's form to dst (nothing, for a bodyless
// request; dst is nil on the HTTP lane) and runs once per attempt;
// decode reads a successful answer and must not keep raw, whose buffer
// is pooled. Either may be nil.
type call struct {
	op
	query  string // appended to the HTTP path
	encode func(dst []byte, framed bool) ([]byte, error)
	decode func(raw []byte, framed bool) error
}

// body encodes the request in the lane's form, appended to dst.
func (cl *call) body(dst []byte, framed bool) ([]byte, error) {
	if cl.encode == nil {
		return dst, nil
	}
	b, err := cl.encode(dst, framed)
	if err != nil {
		return nil, fmt.Errorf("hyrec client: encode %s request: %w", routes[cl.op].path, err)
	}
	return b, nil
}

func (cl *call) answer(raw []byte, framed bool) error {
	if cl.decode == nil {
		return nil
	}
	if err := cl.decode(raw, framed); err != nil {
		return fmt.Errorf("hyrec client: decode %s answer: %w", routes[cl.op].path, err)
	}
	return nil
}

// jsonBody encodes v as the JSON body of an op that only rides HTTP.
func jsonBody(v any) func([]byte, bool) ([]byte, error) {
	return func([]byte, bool) ([]byte, error) { return json.Marshal(v) }
}

// jsonInto decodes the JSON answer of an op that only rides HTTP into v.
func jsonInto(v any) func([]byte, bool) error {
	return func(raw []byte, _ bool) error {
		if len(raw) == 0 {
			return nil
		}
		return json.Unmarshal(raw, v)
	}
}

// exchange runs one call to completion. It is the one place that
// decides, for every op and on either lane:
//   - the lane of each attempt: framed when configured and up and the op
//     has a frame type, HTTP otherwise;
//   - the default timeout, for a ctx without a deadline;
//   - overloaded: one wait of the server's hint (capped), then one retry;
//   - moved and not_primary: a topology refresh, then one retry over HTTP
//     at the primary the answer names;
//   - transient failures (network errors, 5xx and internal): up to
//     c.retries more attempts with exponential backoff;
//   - a framed transport failure: the connection is dropped and the call
//     carries on over HTTP.
//
// The overload, moved and framed-drop retries do not consume the
// transient budget.
func (c *Client) exchange(ctx context.Context, cl *call) error {
	var deadline time.Time
	if _, has := ctx.Deadline(); !has && c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	backoff := c.backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	// The framed payload is pooled: a frame is written before the attempt
	// returns. An HTTP body is not, since the transport may still read
	// it after Do returns.
	payload := wire.GetBuf()
	defer wire.PutBuf(payload)
	r := &routes[cl.op]
	base, framed := c.base, r.req != 0 && c.frameAddr != ""
	movedRetried, overloadRetried := false, false
	for attempt := 0; ; {
		var fc *framedConn
		if framed {
			fc = c.getFramed()
		}
		var err error
		transient := false
		if fc != nil {
			var down bool
			if down, err = fc.attempt(ctx, deadline, cl, payload); down {
				c.dropFramed(fc)
				framed = false
				continue
			}
		} else {
			transient, err = c.httpAttempt(ctx, deadline, base, cl)
		}
		if err == nil {
			return nil
		}
		if apiErr, ok := err.(*APIError); ok && ctx.Err() == nil {
			switch code := apiErr.Code; {
			case !movedRetried && (code == wire.CodeMoved || code == wire.CodeNotPrimary) && r.path != "/v1/topology":
				movedRetried, framed = true, false
				if apiErr.Primary != "" {
					base = strings.TrimRight(apiErr.Primary, "/")
				}
				c.refreshTopology(ctx, deadline)
				continue
			case !overloadRetried && code == wire.CodeOverloaded:
				// Hammering a shedding server defeats its gate: one wait,
				// one retry, then the overloaded answer surfaces.
				overloadRetried = true
				wait := apiErr.RetryAfter
				if wait <= 0 {
					wait = time.Second
				}
				if sleep(ctx, deadline, min(wait, overloadBackoffCap)) != nil {
					return err
				}
				continue
			}
			transient = apiErr.Status >= 500
		}
		if !transient || attempt >= c.retries || ctx.Err() != nil {
			return err
		}
		if err := sleep(ctx, deadline, backoff<<attempt); err != nil {
			return err
		}
		attempt++
	}
}

// overloadBackoffCap bounds how long the client honors a server's
// retry-after hint (1s when the answer carries none) before its single
// overload retry — a hostile or misconfigured hint cannot park a caller
// for minutes. Variable for tests.
var overloadBackoffCap = 2 * time.Second

// sleep waits d. It fails at once with context.DeadlineExceeded when
// the exchange's deadline falls inside the wait, and with ctx's error
// when ctx ends first.
func sleep(ctx context.Context, deadline time.Time, d time.Duration) error {
	if !deadline.IsZero() && time.Until(deadline) < d {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// refreshTopology best-effort-updates the topology cache after a moved
// answer; failures are swallowed (the retry surfaces the real error).
func (c *Client) refreshTopology(ctx context.Context, deadline time.Time) {
	var t wire.Topology
	if _, err := c.httpAttempt(ctx, deadline, c.base, &call{op: opTopology, decode: jsonInto(&t)}); err == nil {
		c.topoMu.Lock()
		c.topo = &t
		c.topoMu.Unlock()
	}
}

// httpAttempt is one attempt of cl over HTTP against base, decoding a
// successful answer. transient reports a failure worth retrying that
// is not an APIError: the request or its answer was lost on the way.
func (c *Client) httpAttempt(ctx context.Context, deadline time.Time, base string, cl *call) (transient bool, err error) {
	body, err := cl.body(nil, false)
	if err != nil {
		return false, err
	}
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	// The answer is read into a pooled buffer and good until it goes
	// back; whatever outlives the exchange is decoded or copied out
	// first.
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	raw, transient, err := c.roundTrip(ctx, base, cl, body, buf)
	if err != nil {
		return transient, err
	}
	return false, cl.answer(raw, false)
}

// roundTrip issues one HTTP request and reads its answer into buf. A
// non-2xx answer is an *APIError.
func (c *Client) roundTrip(ctx context.Context, base string, cl *call, body []byte, buf *[]byte) (raw []byte, transient bool, err error) {
	r := &routes[cl.op]
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path+cl.query, rd)
	if err != nil {
		return nil, false, fmt.Errorf("hyrec client: build request: %w", err)
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range c.headers {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("hyrec client: %s %s: %w", r.method, r.path, err)
	}
	defer resp.Body.Close()
	// Responses are not bounded by the request-body cap (a large
	// candidate set can legitimately exceed it); the generous limit
	// only guards against a runaway peer, and overflowing it is an
	// explicit error rather than a silent truncation.
	data, err := readBody((*buf)[:0], resp)
	*buf = data
	if errors.Is(err, wire.ErrTooLarge) {
		return nil, false, fmt.Errorf("hyrec client: %s response: %w", r.path, err)
	}
	if err != nil {
		return nil, true, fmt.Errorf("hyrec client: read %s response: %w", r.path, err)
	}
	if resp.StatusCode >= 400 {
		return nil, false, decodeAPIError(resp.StatusCode, data)
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
