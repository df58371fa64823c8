package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyrec/internal/admit"
	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// UIDCookieName is the cookie the widget identifies users through
// (Section 4.2: "It identifies users through a cookie"). /online mints a
// fresh user ID and sets the cookie when a request carries neither ?uid
// nor the cookie. Exported so external front-ends speak the identical
// identification protocol.
const UIDCookieName = "hyrec_uid"

// HTTPServer exposes a Backend over HyRec's web API and, through
// ServeFrames, over the framed plane. One route table serves a single
// Engine, a partitioned Cluster and a multi-node Node alike — the
// backend routes internally, so there is no per-front-end handler
// duplication.
//
// Legacy endpoints (Table 1 of the paper), thin adapters over the /v1
// operations that answer any method:
//
//	GET  /online?uid=U                         → gzip of the format-3 personalization job
//	GET  /neighbors?uid=U&epoch=E&id0=..&idN=..→ apply a KNN update (query form)
//	POST /neighbors                            → apply a wire.Result (JSON body)
//	POST /rate?uid=U&item=I&liked=true         → record a rating
//	GET  /recommendations?uid=U                → last recommendations for U
//	GET  /stats                                → bandwidth/throughput counters
//	GET  /healthz                              → liveness
//
// Versioned batch protocol (see internal/wire/v1.go):
//
//	POST /v1/rate       → batch of ratings (JSON body)
//	GET  /v1/job?uid=U  → personalization job (job format 3)
//	POST /v1/result     → apply a wire.Result, returns recommendations
//	GET  /v1/recs?uid=U&n=N → last recommendations
//	GET  /v1/neighbors?uid=U → current KNN approximation
//
// The /online response is gzip-compressed with Content-Encoding: gzip,
// as the paper's Jetty deployment served its jobs; what it compresses is
// job format 3, the same bytes /v1/job serves bare whatever the request's
// Accept-Encoding says.
type HTTPServer struct {
	svc Backend

	// The optional capabilities, resolved once by NewServer; nil when the
	// backend lacks them.
	dir     UserDirectory
	scaler  Scaler
	repl    Replicator
	nodeMap NodeMapSink
	locator UserLocator
	epocher NodeEpocher

	seen *presence

	mintMu sync.Mutex
	mint   *rand.Rand

	rotateEvery time.Duration
	stopRotate  chan struct{}
	rotateWG    sync.WaitGroup
	startOnce   sync.Once
	stopOnce    sync.Once

	// dispatchCtx is cancelled by Close so parked worker long-polls
	// (/v1/job?worker=1&wait=…) release immediately on shutdown instead
	// of pinning connections for the full wait. http.Server.Shutdown
	// does not cancel in-flight request contexts, so call Close before
	// (or alongside) Shutdown to drain dispatchers promptly.
	dispatchCtx  context.Context
	stopDispatch context.CancelFunc

	// Worker-socket gauges (GET /v1/worker/ws): live connections and
	// jobs pushed over them, surfaced on /stats and /metrics.
	wsWorkers    atomic.Int64
	wsJobsPushed atomic.Int64

	// Framed-transport gauges (ServeFrames): live connections, request
	// streams in flight, and bytes moved in either direction.
	frameConns   atomic.Int64
	frameStreams atomic.Int64
	frameBytes   atomic.Int64

	// frameLive holds the open framed listeners and connections, and
	// frameWG counts the goroutines serving them (ServeFrames, each
	// connection's handler, its parked job pulls); frameClosed is set by
	// Close, which closes everything in frameLive and waits on frameWG.
	// frameMu guards frameLive and frameClosed; frameWG.Add runs under
	// it, or on a goroutine frameWG already counts.
	frameMu     sync.Mutex
	frameLive   map[io.Closer]struct{}
	frameClosed bool
	frameWG     sync.WaitGroup

	// gate is the admission gate both transport planes clear before any
	// service work: per-class bounded queues that shed with a typed
	// "overloaded" answer when full (see ops.go).
	gate *admit.Gate

	// nodeSecret, when non-empty, gates the node-plane endpoints
	// (/v1/replicate, /v1/nodes) behind NodeSecretHeader.
	nodeSecret string
}

// NewServer wraps a backend with the web API. If rotateEvery > 0, a
// background goroutine started by Start rotates the anonymous mapping
// on that period until Close is called.
func NewServer(svc Backend, rotateEvery time.Duration) *HTTPServer {
	cfg := svc.Config()
	dispatchCtx, stopDispatch := context.WithCancel(context.Background())
	s := &HTTPServer{
		svc:          svc,
		seen:         newPresence(),
		mint:         rand.New(rand.NewSource(cfg.Seed + 7919)),
		rotateEvery:  rotateEvery,
		stopRotate:   make(chan struct{}),
		dispatchCtx:  dispatchCtx,
		stopDispatch: stopDispatch,
		gate: admit.New(admit.Config{
			MaxRating: cfg.MaxInflightRating,
			MaxWorker: cfg.MaxInflightWorker,
			MaxRead:   cfg.MaxInflightRead,
		}),
	}
	s.dir, _ = svc.(UserDirectory)
	s.scaler, _ = svc.(Scaler)
	s.repl, _ = svc.(Replicator)
	s.nodeMap, _ = svc.(NodeMapSink)
	s.locator, _ = svc.(UserLocator)
	s.epocher, _ = svc.(NodeEpocher)
	return s
}

// NewHTTPServer wraps an Engine — the historical single-machine
// constructor, now a thin alias for NewServer.
func NewHTTPServer(engine *Engine, rotateEvery time.Duration) *HTTPServer {
	return NewServer(engine, rotateEvery)
}

// RequireNodeSecret gates POST /v1/replicate and /v1/nodes behind the
// shared secret: requests whose NodeSecretHeader does not match answer
// 403/forbidden. Call before Handler traffic arrives. An empty secret
// leaves the node plane open (see NodeSecretHeader for the trust model).
func (s *HTTPServer) RequireNodeSecret(secret string) { s.nodeSecret = secret }

// nodePlaneAuthorized checks r against the configured node-plane secret,
// writing the typed 403 on mismatch.
func (s *HTTPServer) nodePlaneAuthorized(w http.ResponseWriter, r *http.Request) bool {
	if s.nodeSecret == "" {
		return true
	}
	got := r.Header.Get(NodeSecretHeader)
	if subtle.ConstantTimeCompare([]byte(got), []byte(s.nodeSecret)) == 1 {
		return true
	}
	writeV1Error(w, wire.CodeForbidden, "node-plane secret missing or wrong")
	return false
}

// Start launches the anonymiser-rotation loop (no-op when rotateEvery ≤ 0).
func (s *HTTPServer) Start() {
	s.startOnce.Do(func() {
		if s.rotateEvery <= 0 {
			return
		}
		s.rotateWG.Add(1)
		go func() {
			defer s.rotateWG.Done()
			ticker := time.NewTicker(s.rotateEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					s.svc.RotateAnonymizer()
				case <-s.stopRotate:
					return
				}
			}
		}()
	})
}

// Close stops and drains the rotation goroutine, releases any parked
// worker long-polls, and closes every framed listener and connection,
// returning once their handlers have. It does not close the underlying
// backend — ownership stays with whoever constructed it. Safe to call
// multiple times.
func (s *HTTPServer) Close() {
	s.stopOnce.Do(func() {
		close(s.stopRotate)
		s.stopDispatch()
	})
	s.closeFrames()
	s.rotateWG.Wait()
}

// ungated marks a route or frame type that skips admission: the node
// plane, the worker socket upgrade, and the admin and telemetry reads.
const ungated admit.Class = -1

// route is one endpoint of the HTTP plane. A path may carry a
// "?flag" suffix: the route then matches only requests whose boolean
// query flag is set, ahead of the flagless route for the same path.
type route struct {
	method string // "" matches every method (the legacy Table-1 routes)
	path   string
	class  admit.Class
	serve  http.HandlerFunc
}

// routes is the HTTP route table: the legacy Table-1 endpoints plus the
// versioned /v1 protocol.
func (s *HTTPServer) routes() []route {
	const get, post, v1 = http.MethodGet, http.MethodPost, wire.V1Prefix
	return []route{
		{"", "/online", admit.Read, s.handleOnline},
		{"", "/online/", admit.Read, s.handleOnline},
		{"", "/neighbors", admit.Worker, s.handleNeighbors},
		{"", "/neighbors/", admit.Worker, s.handleNeighbors},
		{"", "/rate", admit.Rating, s.handleRate},
		{"", "/recommendations", admit.Read, s.handleRecommendations},
		{"", "/stats", ungated, s.handleStats},
		{"", "/metrics", ungated, s.handleMetrics},
		{"", "/healthz", ungated, s.handleHealthz},
		{post, v1 + "/rate", admit.Rating, s.handleV1Rate},
		// A parked long-poll holds its worker slot for the whole park:
		// parked polls are exactly the held capacity the worker bound meters.
		{get, v1 + "/job?worker", admit.Worker, s.handleV1WorkerJob},
		{get, v1 + "/job", admit.Read, s.handleV1Job},
		{"", wire.WSWorkerPath, ungated, s.handleV1WorkerWS},
		{post, v1 + "/ack", admit.Worker, s.handleV1Ack},
		{post, v1 + "/result", admit.Worker, s.handleV1Result},
		{get, v1 + "/recs", admit.Read, s.handleV1Recs},
		{get, v1 + "/neighbors", admit.Read, s.handleV1Neighbors},
		{get, v1 + "/topology", ungated, s.handleV1Topology},
		{post, v1 + "/topology", ungated, s.handleV1Scale},
		{post, v1 + "/replicate", ungated, s.handleV1Replicate},
		{post, v1 + "/nodes", ungated, s.handleV1Nodes},
	}
}

// Handler returns the route table as an http.Handler.
func (s *HTTPServer) Handler() http.Handler {
	byPath := map[string][]route{}
	for _, rt := range s.routes() {
		path, _, _ := strings.Cut(rt.path, "?")
		byPath[path] = append(byPath[path], rt)
	}
	mux := http.NewServeMux()
	for path, rts := range byPath {
		mux.HandleFunc(path, s.serveRoutes(rts))
	}
	// Node-forwarded requests are marked in the context so a service can
	// refuse to proxy them a second time (loop guard; see ForwardedHeader).
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(ForwardedHeader) != "" {
			r = r.WithContext(WithForwarded(r.Context()))
		}
		mux.ServeHTTP(w, r)
	})
}

// serveRoutes serves one path: the first of rts matching the request
// runs once admitted under its class. A full class answers the typed
// 429, a method no route takes the typed 405.
func (s *HTTPServer) serveRoutes(rts []route) http.HandlerFunc {
	var methods []string
	for _, rt := range rts {
		if !slices.Contains(methods, rt.method) {
			methods = append(methods, rt.method)
		}
	}
	notAllowed := strings.Join(methods, " or ") + " required"
	return func(w http.ResponseWriter, r *http.Request) {
		for _, rt := range rts {
			if rt.method != "" && rt.method != r.Method {
				continue
			}
			if _, flag, ok := strings.Cut(rt.path, "?"); ok && !queryFlag(r, flag) {
				continue
			}
			if rt.class != ungated {
				release, ok := s.gate.Acquire(r.Context(), rt.class)
				if !ok {
					s.writeOverloaded(w, rt.class.String()+" queue full")
					return
				}
				defer release()
			}
			rt.serve(w, r)
			return
		}
		writeV1Error(w, wire.CodeMethodNotAllowed, notAllowed)
	}
}

// queryFlag reports whether r sets the boolean query parameter name.
func queryFlag(r *http.Request, name string) bool {
	b, err := strconv.ParseBool(r.URL.Query().Get(name))
	return err == nil && b
}

// ---- legacy Table-1 endpoints ----

// handleOnline is /v1/job with the paper's wire habits: always gzip
// (whole-buffer, the one gzip left on the job path), and the rating that
// triggered the request may piggyback as ?item=I&liked=B (the /rate
// operation).
func (s *HTTPServer) handleOnline(w http.ResponseWriter, r *http.Request) {
	uid, ok := s.identify(w, r, true)
	if !ok {
		return
	}
	if r.URL.Query().Get("item") != "" {
		item, liked, err := rateParams(r)
		if err != nil {
			writeV1Error(w, wire.CodeBadRequest, err.Error())
			return
		}
		if err := s.rate(r.Context(), uid, item, liked); err != nil {
			writeServiceError(w, err)
			return
		}
	}
	s.writeJob(w, r.Context(), uid, true)
}

// handleNeighbors is /v1/result answering 204: the result arrives as a
// JSON body (POST) or in Table 1's query form.
func (s *HTTPServer) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	var res *wire.Result
	if r.Method == http.MethodPost {
		var ok bool
		if res, ok = decodeBody(w, r, wire.MaxBodyBytes, "result", wire.DecodeResult); !ok {
			return
		}
	} else {
		var err error
		if res, err = resultFromQuery(r); err != nil {
			writeV1Error(w, wire.CodeBadRequest, err.Error())
			return
		}
	}
	if _, err := s.result(r.Context(), res); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// resultFromQuery parses Table 1's query form of a result:
// ?uid=U&epoch=E&id0=..&id1=..&recs=I,J,...
func resultFromQuery(r *http.Request) (*wire.Result, error) {
	q := r.URL.Query()
	uid64, err := strconv.ParseUint(q.Get("uid"), 10, 32)
	if err != nil {
		return nil, fmt.Errorf("bad uid %q", q.Get("uid"))
	}
	epoch, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)
	res := &wire.Result{UID: uint32(uid64), Epoch: epoch}
	for i := 0; ; i++ {
		v := q.Get("id" + strconv.Itoa(i))
		if v == "" {
			break
		}
		id64, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad id%d", i)
		}
		res.Neighbors = append(res.Neighbors, uint32(id64))
	}
	for _, v := range strings.Split(q.Get("recs"), ",") {
		if v == "" {
			continue
		}
		id64, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad recs %q", v)
		}
		res.Recommendations = append(res.Recommendations, uint32(id64))
	}
	return res, nil
}

// handleRate records one rating named in the query, answering 204.
func (s *HTTPServer) handleRate(w http.ResponseWriter, r *http.Request) {
	uid, ok := s.identify(w, r, false)
	if !ok {
		return
	}
	item, liked, err := rateParams(r)
	if err != nil {
		writeV1Error(w, wire.CodeBadRequest, err.Error())
		return
	}
	if err := s.rate(r.Context(), uid, item, liked); err != nil {
		writeServiceError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRecommendations is /v1/recs answering a bare JSON array.
func (s *HTTPServer) handleRecommendations(w http.ResponseWriter, r *http.Request) {
	if recs, ok := s.recs(w, r); ok {
		writeJSON(w, http.StatusOK, wireIDs(recs))
	}
}

// ---- telemetry ----

// stats is the one map behind /stats and /metrics: the backend's
// counters plus the server's own gauges.
func (s *HTTPServer) stats() map[string]any {
	m := s.svc.Stats()
	m["online_users"] = int64(s.seen.Online(presenceWindow))
	m["ws_workers"] = s.wsWorkers.Load()
	m["ws_jobs_pushed_total"] = s.wsJobsPushed.Load()
	m["frame_conns"] = s.frameConns.Load()
	m["frame_streams_active"] = s.frameStreams.Load()
	m["frame_bytes_total"] = s.frameBytes.Load()
	s.gate.AddStats(m)
	return m
}

func (s *HTTPServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// handleMetrics serves GET /metrics: the /stats counters in Prometheus
// text exposition format, plus the elastic-topology gauges
// hyrec_topology_partitions and hyrec_migration_users_moved_total. The
// alias lets a scrape target consume the deployment without a JSON
// exporter sidecar.
func (s *HTTPServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	stats := s.stats()
	topo := s.svc.Topology()
	stats["topology_partitions"] = int64(topo.Partitions)
	stats["migration_users_moved_total"] = topo.UsersMovedTotal
	stats["migrating"] = topo.Migrating
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := "hyrec_" + k
		switch v := stats[k].(type) {
		case int:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
		case int64:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
		case float64:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, v)
		case bool:
			b := 0
			if v {
				b = 1
			}
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, b)
		case []int64:
			fmt.Fprintf(w, "# TYPE %s gauge\n", name)
			for i, n := range v {
				fmt.Fprintf(w, "%s{partition=\"%d\"} %d\n", name, i, n)
			}
		}
	}
}

// handleHealthz answers liveness. It doubles as epoch exchange: peers
// probing a node learn which node-map epoch it runs, and repair the
// difference.
func (s *HTTPServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.epocher != nil {
		w.Header().Set(NodeEpochHeader, strconv.FormatUint(s.epocher.NodeEpoch(), 10))
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// ---- admin and node plane ----

// handleV1Topology reports the current shape (partition count, ring
// parameter, migration status); ?uid=U also names the node serving that
// user's partition as primary, when the backend knows the node map.
func (s *HTTPServer) handleV1Topology(w http.ResponseWriter, r *http.Request) {
	topo := s.svc.Topology()
	if raw := r.URL.Query().Get("uid"); raw != "" {
		if s.locator == nil {
			writeUnsupported(w, "locate users by node")
			return
		}
		uid64, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			writeV1Error(w, wire.CodeBadRequest, fmt.Sprintf("bad uid %q", raw))
			return
		}
		if ref, ok := s.locator.LocateUser(core.UserID(uid64)); ok {
			topo.Owner = &ref
		}
	}
	writeJSON(w, http.StatusOK, topo)
}

// handleV1Scale serves POST /v1/topology: a live resharding to the
// requested partition count, answering the resulting topology once the
// migration has completed.
func (s *HTTPServer) handleV1Scale(w http.ResponseWriter, r *http.Request) {
	if s.scaler == nil {
		writeUnsupported(w, "scale (single engine?)")
		return
	}
	req, ok := decodeBody(w, r, wire.MaxBodyBytes, "scale", func(b []byte) (req wire.ScaleRequest, err error) {
		err = json.Unmarshal(b, &req)
		return
	})
	if !ok {
		return
	}
	if err := s.scaler.Scale(r.Context(), req.Partitions); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Topology())
}

// handleV1Replicate serves POST /v1/replicate: a primary's replication
// batch for a partition this node mirrors (or owns, during a handoff).
func (s *HTTPServer) handleV1Replicate(w http.ResponseWriter, r *http.Request) {
	if !s.nodePlaneAuthorized(w, r) {
		return
	}
	if s.repl == nil {
		writeUnsupported(w, "accept replication")
		return
	}
	// DecodeReplBatch is the fuzzed production decoder (FuzzDecodeReplBatch).
	batch, ok := decodeBody(w, r, wire.MaxReplBodyBytes, "replicate", wire.DecodeReplBatch)
	if !ok {
		return
	}
	ack, err := s.repl.Replicate(r.Context(), batch)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

// handleV1Nodes serves POST /v1/nodes: the failover coordinator's node
// map push. Stale epochs are ignored by the sink, not an error.
func (s *HTTPServer) handleV1Nodes(w http.ResponseWriter, r *http.Request) {
	if !s.nodePlaneAuthorized(w, r) {
		return
	}
	if s.nodeMap == nil {
		writeUnsupported(w, "accept node maps")
		return
	}
	// DecodeNodeMap is the fuzzed production decoder (FuzzDecodeNodeMap).
	nm, ok := decodeBody(w, r, wire.MaxBodyBytes, "node map", wire.DecodeNodeMap)
	if !ok {
		return
	}
	if err := s.nodeMap.ApplyNodeMap(r.Context(), nm); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.AckResponse{Status: "ok"})
}

// ---- /v1 batch protocol ----

func (s *HTTPServer) handleV1Rate(w http.ResponseWriter, r *http.Request) {
	// DecodeRateRequest is the fuzzed production decoder
	// (FuzzDecodeRateBatch): malformed or oversized input yields a typed
	// error, never a panic or a silently truncated batch.
	req, ok := decodeBody(w, r, wire.MaxBodyBytes, "rate", wire.DecodeRateRequest)
	if !ok {
		return
	}
	ratings := make([]core.Rating, len(req.Ratings))
	for i, m := range req.Ratings {
		ratings[i] = core.Rating{User: core.UserID(m.UID), Item: core.ItemID(m.Item), Liked: m.Liked}
	}
	if err := s.rateBatch(r.Context(), ratings); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.RateResponse{Accepted: len(ratings)})
}

func (s *HTTPServer) handleV1Job(w http.ResponseWriter, r *http.Request) {
	if uid, ok := s.identify(w, r, true); ok {
		s.writeJob(w, r.Context(), uid, false)
	}
}

// handleV1WorkerJob serves GET /v1/job?worker=1[&wait=D]: the next
// leased job from the staleness queue, long-polling up to `wait`
// (capped) and answering 204 No Content when the queue stays empty.
func (s *HTTPServer) handleV1WorkerJob(w http.ResponseWriter, r *http.Request) {
	wait := time.Duration(0)
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			writeV1Error(w, wire.CodeBadRequest, fmt.Sprintf("bad wait %q", raw))
			return
		}
		wait = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), min(wait, maxWorkerWait))
	defer cancel()
	// Server shutdown (Close) releases the poll immediately.
	stop := context.AfterFunc(s.dispatchCtx, cancel)
	defer stop()
	leased, err := s.dispatchJob(ctx, func(payload []byte) error {
		w.Header().Set("Content-Type", jobContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		_, err := w.Write(payload)
		return err
	})
	switch {
	case leased: // answered, or the worker is gone and the lease given back
	case err != nil:
		writeServiceError(w, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleV1Ack serves POST /v1/ack: complete (done=true) or abandon
// (done=false) a lease without posting a result.
func (s *HTTPServer) handleV1Ack(w http.ResponseWriter, r *http.Request) {
	// DecodeAck is the fuzzed production decoder (FuzzDecodeAck).
	req, ok := decodeBody(w, r, wire.MaxBodyBytes, "ack", wire.DecodeAck)
	if !ok {
		return
	}
	if err := s.svc.Ack(r.Context(), req.Lease, req.Done); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.AckResponse{Status: "ok"})
}

func (s *HTTPServer) handleV1Result(w http.ResponseWriter, r *http.Request) {
	// DecodeResult is the fuzzed production decoder (FuzzDecodeResult).
	res, ok := decodeBody(w, r, wire.MaxBodyBytes, "result", wire.DecodeResult)
	if !ok {
		return
	}
	recs, err := s.result(r.Context(), res)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.RecsResponse{Recs: wireIDs(recs)})
}

func (s *HTTPServer) handleV1Recs(w http.ResponseWriter, r *http.Request) {
	if recs, ok := s.recs(w, r); ok {
		writeJSON(w, http.StatusOK, wire.RecsResponse{Recs: wireIDs(recs)})
	}
}

// recs identifies the user and fetches up to ?n= retained
// recommendations (all when absent), writing the error answer itself.
func (s *HTTPServer) recs(w http.ResponseWriter, r *http.Request) ([]core.ItemID, bool) {
	uid, ok := s.identify(w, r, false)
	if !ok {
		return nil, false
	}
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		var err error
		if n, err = strconv.Atoi(raw); err != nil || n < 0 {
			writeV1Error(w, wire.CodeBadRequest, fmt.Sprintf("bad n %q", raw))
			return nil, false
		}
	}
	recs, err := s.svc.Recommendations(r.Context(), uid, n)
	if err != nil {
		writeServiceError(w, err)
		return nil, false
	}
	return recs, true
}

// wireIDs converts user or item IDs to their wire form.
func wireIDs[ID ~uint32](ids []ID) []uint32 {
	out := make([]uint32, len(ids))
	for i, id := range ids {
		out[i] = uint32(id)
	}
	return out
}

func (s *HTTPServer) handleV1Neighbors(w http.ResponseWriter, r *http.Request) {
	uid, ok := s.identify(w, r, false)
	if !ok {
		return
	}
	hood, err := s.svc.Neighbors(r.Context(), uid)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.NeighborsResponse{Neighbors: wireIDs(hood)})
}

// ---- shared plumbing ----

// jobContentType labels a format-3 job body.
const jobContentType = "application/octet-stream"

// writeJob answers u's job: format 3 bare, or its gzip with
// Content-Encoding when gz (/online). The payload is served from pooled
// buffers, so a steady-state request borrows every buffer it touches.
func (s *HTTPServer) writeJob(w http.ResponseWriter, ctx context.Context, u core.UserID, gz bool) {
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	if err := s.job(ctx, u, bufs, gz); err != nil {
		writeServiceError(w, err)
		return
	}
	body := bufs.JSON
	w.Header().Set("Content-Type", jobContentType)
	if gz {
		w.Header().Set("Content-Encoding", "gzip")
		body = bufs.Gz
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// identify resolves the requesting user (UIDFromRequest), writing the
// 400 itself on failure. An unidentified request gets a freshly minted
// identity and cookie when mint is set (Section 4.2's first visit) and
// a 400 otherwise.
func (s *HTTPServer) identify(w http.ResponseWriter, r *http.Request, mint bool) (core.UserID, bool) {
	uid, known, err := UIDFromRequest(r)
	if err == nil && !known {
		if !mint {
			err = fmt.Errorf("missing uid (no ?uid parameter or %s cookie)", UIDCookieName)
		} else if uid, err = s.mintUser(); err == nil {
			SetUIDCookie(w, uid)
		}
	}
	if err != nil {
		writeV1Error(w, wire.CodeBadRequest, err.Error())
		return 0, false
	}
	return uid, true
}

// UIDFromRequest resolves the requesting user: an explicit ?uid parameter
// wins; otherwise the identification cookie is consulted. known is false
// when the request carries neither. Shared by every endpoint so legacy
// and /v1 identification stay protocol-identical.
func UIDFromRequest(r *http.Request) (uid core.UserID, known bool, err error) {
	if raw := r.URL.Query().Get("uid"); raw != "" {
		uid64, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			return 0, false, fmt.Errorf("bad uid %q", raw)
		}
		return core.UserID(uid64), true, nil
	}
	if c, err := r.Cookie(UIDCookieName); err == nil {
		uid64, err := strconv.ParseUint(c.Value, 10, 32)
		if err != nil {
			return 0, false, fmt.Errorf("bad %s cookie %q", UIDCookieName, c.Value)
		}
		return core.UserID(uid64), true, nil
	}
	return 0, false, nil
}

// SetUIDCookie hands uid to the browser as the identification cookie —
// the attributes every front-end must agree on.
func SetUIDCookie(w http.ResponseWriter, uid core.UserID) {
	http.SetCookie(w, &http.Cookie{
		Name:     UIDCookieName,
		Value:    strconv.FormatUint(uint64(uid), 10),
		Path:     "/",
		HttpOnly: true,
		SameSite: http.SameSiteLaxMode,
	})
}

// mintUser allocates an unused user ID and registers it so concurrent
// mints cannot collide. It fails when the backend has no user directory
// (a node).
func (s *HTTPServer) mintUser() (core.UserID, error) {
	if s.dir == nil {
		return 0, fmt.Errorf("this deployment cannot mint users; supply ?uid or the %s cookie", UIDCookieName)
	}
	s.mintMu.Lock()
	defer s.mintMu.Unlock()
	for {
		id := core.UserID(s.mint.Uint32())
		if id == 0 || s.dir.KnownUser(id) {
			continue
		}
		s.dir.RegisterUser(id)
		return id, nil
	}
}

func rateParams(r *http.Request) (core.ItemID, bool, error) {
	q := r.URL.Query()
	item64, err := strconv.ParseUint(q.Get("item"), 10, 32)
	if err != nil {
		return 0, false, fmt.Errorf("bad item %q", q.Get("item"))
	}
	liked := true
	if v := q.Get("liked"); v != "" {
		liked, err = strconv.ParseBool(v)
		if err != nil {
			return 0, false, fmt.Errorf("bad liked %q", v)
		}
	}
	return core.ItemID(item64), liked, nil
}
