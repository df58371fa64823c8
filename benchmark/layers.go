package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hyrec/client"
	"hyrec/internal/admit"
	"hyrec/internal/cluster"
	"hyrec/internal/core"
	"hyrec/internal/frame"
	"hyrec/internal/node"
	"hyrec/internal/persist"
	"hyrec/internal/server"
	"hyrec/internal/topk"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// The traced pass: the workload's own op stream replayed in-process on
// one goroutine, every call into a layer's public functions wrapped in
// a span, followed by fixed-count probes of the layers the replay does
// not reach (transports, cluster routing, node replication, admission,
// persistence) over the same data. Every per-layer metric is printed on
// every workload; what the workload changes is the data the layers see —
// profile sizes, candidate sets, payload sizes, batch sizes.
//
// The traced engine always runs the scheduler (30 s leases), so
// server.rate_us includes its MarkStale on every workload.

const (
	// tracedProcessSeconds is the window of the process run behind a
	// traced pass; it only supplies the untraced op latency.
	tracedProcessSeconds = 4
	traceOps             = 2000            // ops replayed, at most
	replayBudget         = 5 * time.Second // the replay stops early past this
	probeIters           = 200
	echoIters            = 2000
	gateIters            = 200_000
)

// layerPass is the traced pass's state.
type layerPass struct {
	ctx  context.Context
	w    workload
	in   *inputs
	t    *tracer
	eng  *server.Engine
	vals map[string]float64
	// sums accumulates counts taken at span boundaries (bytes,
	// candidates, ratings), keyed by metric name.
	sums map[string]float64
	// payloads are the job payload sizes seen, for the echo probes.
	jsonSizes []int
	lastJSON  []byte
}

func engineConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.K, cfg.R = knnK, recR
	cfg.LeaseTTL = 30 * time.Second
	return cfg
}

// opRatings returns the ratings of replay op i. Ops interleave the
// client goroutines' streams, and start where the measured window
// started.
func (lp *layerPass) opRatings(i int, dst []core.Rating) []core.Rating {
	p := &lp.in.parts[i%len(lp.in.parts)]
	j := i / len(lp.in.parts)
	switch lp.w.kind {
	case kindCycle:
		return append(dst[:0], p.rating(j))
	case kindIngest:
		return p.batch(p.setupOps()+j, dst)
	default:
		dst = dst[:0]
		for s := 0; s < refreshGroup; s++ {
			dst = append(dst, p.toggle(j*refreshGroup+s))
		}
		return dst
	}
}

// tracePass runs the traced pass for rs and returns every per-layer
// metric. proc is the untraced process run it is compared against.
func tracePass(ctx context.Context, rs runSpec, in *inputs, proc *runResult, outDir string) (map[string]float64, error) {
	lp := &layerPass{
		ctx: ctx, w: rs.w, in: in, t: newTracer(),
		eng:  server.NewEngine(engineConfig()),
		vals: make(map[string]float64),
		sums: make(map[string]float64),
	}
	defer lp.eng.Close()
	if err := lp.seed(); err != nil {
		return nil, fmt.Errorf("traced pass: seed: %w", err)
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"replay", lp.replay},
		{"allocs", lp.allocProbes},
		{"sched", lp.schedProbe},
		{"client", lp.clientProbes},
		{"echo", lp.echoProbes},
		{"cluster", lp.clusterProbe},
		{"node", lp.nodeProbe},
		{"admit", lp.admitProbe},
		{"persist", lp.persistProbe},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return nil, fmt.Errorf("traced pass: %s: %w", s.name, err)
		}
	}
	lp.spanMetrics()
	lp.benchMetrics(proc)
	lp.printSelfTimes()
	if err := lp.t.write(filepath.Join(outDir, "trace-"+rs.w.name+".json")); err != nil {
		return nil, err
	}
	return lp.vals, nil
}

// seed loads and warms the engine the way the process set-up loads the
// server.
func (lp *layerPass) seed() error {
	if lp.w.kind == kindIngest {
		var buf []core.Rating
		for c := range lp.in.parts {
			p := &lp.in.parts[c]
			for i := 0; i < p.setupOps(); i++ {
				buf = p.batch(i, buf)
				if err := lp.eng.RateBatch(lp.ctx, buf); err != nil {
					return err
				}
			}
		}
		return nil
	}
	seed := lp.in.seedRatings
	for lo := 0; lo < len(seed); lo += seedBatch {
		if err := lp.eng.RateBatch(lp.ctx, seed[lo:min(lo+seedBatch, len(seed))]); err != nil {
			return err
		}
	}
	w := widget.New()
	for round := 0; round < lp.w.warmRounds; round++ {
		for _, u := range lp.in.users {
			job, err := lp.eng.Job(lp.ctx, u)
			if err != nil {
				return err
			}
			res, _ := w.Execute(job)
			if _, err := lp.eng.ApplyResult(lp.ctx, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// replay runs the workload's first ops through every layer of the
// personalization path: the op's own rating write, then the full cycle
// for the op's first user. Odd ops run with the tracer off; the ratio of
// the two halves' mean op time is the tracing overhead.
func (lp *layerPass) replay() error {
	t := lp.t
	w := widget.New()
	rng := rand.New(rand.NewSource(1))
	var (
		ratings []core.Rating
		cands   []core.UserID
		seen    = make(map[core.UserID]struct{}, core.MaxCandidateSetSize(knnK))
		profs   []core.Profile
		col     = topk.New(knnK)
		hood    []core.Neighbor
		opNS    [2]int64 // [traced, untraced]
		opN     [2]int64
	)
	start := time.Now()
	for i := 0; i < traceOps && (time.Since(start) < replayBudget || i < 2*probeIters); i++ {
		ratings = lp.opRatings(i, ratings)
		u := ratings[0].User
		t.on = i%2 == 0
		t.op = i + 1
		var opErr error
		fail := func(err error) {
			if err != nil && opErr == nil {
				opErr = err
			}
		}
		t0 := time.Now()
		t.begin("op")

		t.call("server.rate_batch", func() { fail(lp.eng.RateBatch(lp.ctx, ratings)) })
		t.call("core.sample", func() {
			cands = core.BuildCandidateSetInto(cands[:0], seen, u, knnK, lp.eng.KNN().Get, lp.eng.Profiles().RandomUsers, rng)
		})
		t.call("server.job", func() {
			_, err := lp.eng.Job(lp.ctx, u)
			fail(err)
		})
		bufs := wire.GetPayloadBufs()
		var jsonBody, gz []byte
		t.call("server.job_json", func() {
			var err error
			jsonBody, err = lp.eng.AppendJobJSON(lp.ctx, u, bufs.JSON)
			fail(err)
		})
		t.call("server.payload", func() {
			var err error
			jsonBody, gz, err = lp.eng.AppendJobPayload(lp.ctx, u, jsonBody[:0], bufs.Gz)
			fail(err)
		})
		if opErr != nil {
			return opErr
		}
		var res *wire.Result
		t.begin("widget.execute_payload")
		at := t.now()
		r, timing, err := w.ExecutePayload(gz)
		fail(err)
		res = r
		t.child("widget.decompress", &at, timing.Decompress)
		t.child("widget.decode", &at, timing.Decode)
		t.child("widget.knn", &at, timing.KNN)
		t.child("widget.recommend", &at, timing.Recommend)
		t.end()

		var raw []byte
		var job *wire.Job
		t.call("wire.decompress", func() { raw, err = wire.Decompress(gz); fail(err) })
		t.call("wire.decode_job", func() { job, err = wire.DecodeJob(raw); fail(err) })
		if opErr != nil {
			return opErr
		}
		own := wire.MsgToProfile(job.Profile)
		profs = profs[:0]
		for _, m := range job.Candidates {
			profs = append(profs, wire.MsgToProfile(m))
		}
		t.call("core.score", func() { hood = core.SelectKNNInto(own, profs, knnK, core.Cosine{}, col, hood) })

		var resJSON []byte
		t.call("wire.encode_result", func() { resJSON, err = wire.EncodeResult(res); fail(err) })
		t.call("wire.decode_result", func() { _, err = wire.DecodeResult(resJSON); fail(err) })
		t.call("server.apply_result", func() { _, err = lp.eng.ApplyResult(lp.ctx, res); fail(err) })
		t.call("server.read", func() {
			_, err = lp.eng.Neighbors(lp.ctx, u)
			fail(err)
			_, err = lp.eng.Recommendations(lp.ctx, u, 0)
			fail(err)
		})
		t.end()
		if opErr != nil {
			return opErr
		}
		half := i % 2
		opNS[half] += int64(time.Since(t0))
		opN[half]++

		if t.on {
			lp.sums["ops"]++
			lp.sums["ratings"] += float64(len(ratings))
			lp.sums["core.candidates"] += float64(len(cands))
			lp.sums["scored"] += float64(len(profs))
			lp.sums["wire.job_json_bytes"] += float64(len(jsonBody))
			lp.sums["wire.job_gz_bytes"] += float64(len(gz))
			lp.sums["wire.result_bytes"] += float64(len(resJSON))
			lp.jsonSizes = append(lp.jsonSizes, len(jsonBody))
			lp.lastJSON = append(lp.lastJSON[:0], jsonBody...)
		}
		bufs.JSON, bufs.Gz = jsonBody, gz
		wire.PutPayloadBufs(bufs)
	}
	t.on = true
	t.op = 0
	if opN[0] == 0 || opN[1] == 0 {
		return errors.New("replay ran no ops")
	}
	lp.vals["bench.trace_overhead_ratio"] = (float64(opNS[0]) / float64(opN[0])) / (float64(opNS[1]) / float64(opN[1]))
	return nil
}

// mallocs counts this process's heap allocations so far.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// allocProbes counts allocations per rating on the ingest path and per
// personalization cycle on the serving path, continuing the op stream
// where the replay left off.
func (lp *layerPass) allocProbes() error {
	var ratings []core.Rating
	var err error
	base := traceOps
	n := 0
	before := mallocs()
	for i := 0; i < probeIters; i++ {
		ratings = lp.opRatings(base+i, ratings)
		if err = lp.eng.RateBatch(lp.ctx, ratings); err != nil {
			return err
		}
		n += len(ratings)
	}
	lp.vals["server.allocs_per_rating"] = float64(mallocs()-before) / float64(n)

	w := widget.New()
	results := make([]*wire.Result, 0, probeIters)
	gzs := make([][]byte, 0, probeIters)
	before = mallocs()
	for i := 0; i < probeIters; i++ {
		u := lp.in.users[i%len(lp.in.users)]
		bufs := wire.GetPayloadBufs()
		jsonBody, gz, err := lp.eng.AppendJobPayload(lp.ctx, u, bufs.JSON, bufs.Gz)
		if err != nil {
			return err
		}
		gzs = append(gzs, append([]byte(nil), gz...)) // counted: one copy per cycle, constant across builds
		bufs.JSON, bufs.Gz = jsonBody, gz
		wire.PutPayloadBufs(bufs)
	}
	served := mallocs() - before
	for _, gz := range gzs {
		res, _, err := w.ExecutePayload(gz)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	before = mallocs()
	for _, res := range results {
		if _, err := lp.eng.ApplyResult(lp.ctx, res); err != nil {
			return err
		}
	}
	lp.vals["server.allocs_per_cycle"] = float64(served+mallocs()-before) / probeIters
	return nil
}

// schedProbe drains stale users through the worker dispatch path:
// TryNextJob issues a leased job, Ack completes it.
func (lp *layerPass) schedProbe() error {
	var ratings []core.Rating
	for i := 0; i < probeIters; i++ {
		ratings = lp.opRatings(traceOps+probeIters+i, ratings)
		if err := lp.eng.RateBatch(lp.ctx, ratings); err != nil {
			return err
		}
	}
	// The stream may revisit users, so fewer than probeIters may be
	// stale; drain what there is.
	drained := 0
	for ; drained < probeIters; drained++ {
		lp.t.op = -(drained + 1) // probe ops count downwards, apart from replay ops
		var job *wire.Job
		var err error
		lp.t.call("server.next_job", func() { job, err = lp.eng.TryNextJob() })
		if err != nil {
			return err
		}
		if job == nil {
			// The empty poll is not a dispatch; keep it out of the mean.
			lp.t.spans = lp.t.spans[:len(lp.t.spans)-1]
			break
		}
		lp.t.call("server.ack", func() { err = lp.eng.Ack(lp.ctx, job.Lease, true) })
		if err != nil {
			return err
		}
	}
	if drained == 0 {
		return errors.New("ratings staled no user: the scheduler dispatched nothing")
	}
	st := lp.eng.Scheduler().Stats()
	lp.vals["sched.reissued"] = float64(st.Reissued)
	lp.vals["sched.fallback_taken"] = float64(st.FallbackRuns)
	return nil
}

// listen opens a loopback listener on a free port.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// clientProbes times the typed client against an in-process server on
// loopback, over /v1 HTTP and over the framed plane.
func (lp *layerPass) clientProbes() error {
	hs := server.NewServer(lp.eng, 0)
	hln, err := listen()
	if err != nil {
		return err
	}
	fln, err := listen()
	if err != nil {
		hln.Close()
		return err
	}
	srv := &http.Server{Handler: hs.Handler()}
	served := make(chan struct{}, 2)
	go func() { _ = srv.Serve(hln); served <- struct{}{} }() // ErrServerClosed on the Close below
	go func() { _ = hs.ServeFrames(fln); served <- struct{}{} }()
	defer func() {
		srv.Close()
		hs.Close() // closes the frame listener and its connections
		<-served
		<-served
	}()
	plain := client.New("http://"+hln.Addr().String(), client.WithTimeout(opTimeout))
	defer plain.Close()
	framed := client.New("http://"+hln.Addr().String(), client.WithTimeout(opTimeout), client.WithFramed(fln.Addr().String()))
	defer framed.Close()

	w := widget.New()
	var ratings []core.Rating
	user := func(i int) core.UserID { return lp.in.users[i%len(lp.in.users)] }
	for _, tr := range []struct {
		prefix, allocs string
		c              *client.Client
	}{
		{"client.http", "client.allocs_per_http_job", plain},
		{"client.framed", "client.allocs_per_framed_job", framed},
	} {
		// One untimed exchange dials the connection.
		if _, err := tr.c.JobRaw(lp.ctx, user(0)); err != nil {
			return err
		}
		before := mallocs()
		for i := 0; i < probeIters; i++ {
			lp.t.op = -(i + 1)
			lp.t.call(tr.prefix+"_job", func() { _, err = tr.c.JobRaw(lp.ctx, user(i)) })
			if err != nil {
				return err
			}
		}
		lp.vals[tr.allocs] = float64(mallocs()-before) / probeIters
		for i := 0; i < probeIters; i++ {
			lp.t.op = -(i + 1)
			ratings = lp.opRatings(traceOps+2*probeIters+i, ratings)
			lp.t.call(tr.prefix+"_rate_batch", func() { err = tr.c.RateBatch(lp.ctx, ratings) })
			if err != nil {
				return err
			}
		}
	}
	for i := 0; i < probeIters; i++ {
		lp.t.op = -(i + 1)
		job, err := plain.Job(lp.ctx, user(i))
		if err != nil {
			return err
		}
		res, _ := w.Execute(job)
		lp.t.call("client.http_result", func() { _, err = plain.ApplyResult(lp.ctx, res) })
		if err != nil {
			return err
		}
	}
	return nil
}

// medianPayload is a payload of the workload's median message size for
// the echo probes: the encoded rate batch on ingest workloads, the job
// JSON elsewhere.
func (lp *layerPass) medianPayload() []byte {
	if lp.w.kind == kindIngest {
		return frame.AppendRateBatch(nil, lp.opRatings(0, nil))
	}
	sizes := append([]int(nil), lp.jsonSizes...)
	sort.Ints(sizes)
	n := sizes[len(sizes)/2]
	out := make([]byte, n)
	for i := range out {
		out[i] = lp.lastJSON[i%len(lp.lastJSON)]
	}
	return out
}

// echoProbes bounces the median payload off an echo peer over each
// framing layer: what one message costs before any handler runs.
func (lp *layerPass) echoProbes() error {
	payload := lp.medianPayload()

	fln, err := listen()
	if err != nil {
		return err
	}
	frameDone := make(chan error, 1)
	go func() {
		c, err := fln.Accept()
		if err != nil {
			frameDone <- err
			return
		}
		cn := frame.NewConn(c, 0)
		defer cn.Close()
		for {
			f, err := cn.ReadFrame()
			if err != nil {
				frameDone <- nil // the prober closed its end
				return
			}
			if err := cn.WriteFrame(f.Type, f.Stream, f.Payload); err != nil {
				frameDone <- err
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", fln.Addr().String())
	if err != nil {
		fln.Close()
		return err
	}
	cn := frame.NewConn(nc, 0)
	for i := 0; i < echoIters; i++ {
		lp.t.op = -(i + 1)
		lp.t.begin("frame.roundtrip")
		if err = cn.WriteFrame(frame.TRateBatch, 1, payload); err == nil {
			_, err = cn.ReadFrame()
		}
		lp.t.end()
		if err != nil {
			break
		}
	}
	cn.Close()
	fln.Close()
	if derr := <-frameDone; err == nil {
		err = derr
	}
	if err != nil {
		return fmt.Errorf("frame echo: %w", err)
	}

	wln, err := listen()
	if err != nil {
		return err
	}
	wsDone := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(wsDone)
		conn, err := ws.Upgrade(w, r, 0)
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			op, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if conn.WriteMessage(op, msg) != nil {
				return
			}
		}
	})}
	go func() { _ = srv.Serve(wln) }() // ErrServerClosed on the Close below
	defer srv.Close()
	conn, err := ws.Dial(lp.ctx, "http://"+wln.Addr().String()+"/", 0)
	if err != nil {
		return fmt.Errorf("ws echo: %w", err)
	}
	before := mallocs()
	for i := 0; i < echoIters; i++ {
		lp.t.op = -(i + 1)
		lp.t.begin("ws.roundtrip")
		if err = conn.WriteMessage(ws.OpText, payload); err == nil {
			_, _, err = conn.ReadMessage()
		}
		lp.t.end()
		if err != nil {
			break
		}
	}
	// Two messages per round trip: the one sent and its echo.
	lp.vals["ws.allocs_per_msg"] = float64(mallocs()-before) / (2 * echoIters)
	conn.Close()
	<-wsDone
	if err != nil {
		return fmt.Errorf("ws echo: %w", err)
	}
	return nil
}

// clusterProbe prices ring routing: the same batches through an
// 8-partition cluster and through one engine.
func (lp *layerPass) clusterProbe() error {
	cl := cluster.New(engineConfig(), 8)
	defer cl.Close()
	eng := server.NewEngine(engineConfig())
	defer eng.Close()
	var ratings []core.Rating
	var err error
	for i := 0; i < probeIters; i++ {
		lp.t.op = -(i + 1)
		ratings = lp.opRatings(i, ratings)
		lp.t.call("cluster.rate_batch", func() { err = cl.RateBatch(lp.ctx, ratings) })
		if err != nil {
			return err
		}
		lp.t.call("cluster.engine_rate_batch", func() { err = eng.RateBatch(lp.ctx, ratings) })
		if err != nil {
			return err
		}
	}
	return nil
}

// nodeProbe runs the op stream through node 1 of an in-process two-node
// deployment with framed peers (half of every batch takes the proxy
// hop, every batch is replica-shipped before the ack), then replays the
// replica leg alone: export the batch's users, encode the shipment,
// apply it on the mirror.
func (lp *layerPass) nodeProbe() error {
	var (
		mems  [2]node.Member
		hlns  [2]net.Listener
		flns  [2]net.Listener
		nodes [2]*node.Node
	)
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	for i := range mems {
		var err error
		if hlns[i], err = listen(); err != nil {
			return err
		}
		cleanup = append(cleanup, func() { hlns[i].Close() })
		if flns[i], err = listen(); err != nil {
			return err
		}
		cleanup = append(cleanup, func() { flns[i].Close() })
		mems[i] = node.Member{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + hlns[i].Addr().String(), FrameAddr: flns[i].Addr().String()}
	}
	for i := range nodes {
		nd, err := node.New(node.Config{
			Self: mems[i], Members: mems[:], Partitions: 8, Engine: engineConfig(),
			ReplicateEvery: 50 * time.Millisecond, AntiEntropyEvery: -1, HeartbeatEvery: -1,
		})
		if err != nil {
			return err
		}
		nodes[i] = nd
		hs := server.NewServer(nd, 0)
		srv := &http.Server{Handler: hs.Handler()}
		go func(ln net.Listener) { _ = srv.Serve(ln) }(hlns[i]) // ErrServerClosed on Close
		go func(ln net.Listener) { _ = hs.ServeFrames(ln) }(flns[i])
		nd.Start()
		cleanup = append(cleanup, func() { srv.Close(); hs.Close(); nd.Close() })
	}

	var ratings []core.Rating
	var err error
	proxied, total := 0, 0
	var replBytes, replRatings float64
	epoch := nodes[0].Map().Epoch
	for i := 0; i < probeIters; i++ {
		lp.t.op = -(i + 1)
		ratings = lp.opRatings(i, ratings)
		lp.t.call("node.rate_batch", func() { err = nodes[0].RateBatch(lp.ctx, ratings) })
		if err != nil {
			return err
		}
		// The replica leg alone, for the users node 1 is primary of.
		byPart := make(map[int][]core.UserID)
		own := 0
		for _, r := range ratings {
			total++
			ref, ok := nodes[0].LocateUser(r.User)
			if !ok {
				return fmt.Errorf("user %d has no primary", r.User)
			}
			if ref.ID != mems[0].ID {
				proxied++
				continue
			}
			own++
			byPart[ref.Partition] = append(byPart[ref.Partition], r.User)
		}
		replRatings += float64(own)
		for p, users := range byPart {
			b := &wire.ReplBatch{Epoch: epoch, Partition: p, Seq: 1<<40 + uint64(i)}
			for _, st := range nodes[0].Cluster().Engine(p).ExportUsers(users) {
				b.Users = append(b.Users, replUser(st))
			}
			enc, err := wire.EncodeReplBatch(b)
			if err != nil {
				return err
			}
			replBytes += float64(len(enc))
			lp.t.call("node.replicate", func() { _, err = nodes[1].Replicate(lp.ctx, b) })
			if err != nil {
				return err
			}
		}
	}
	lp.vals["node.proxied_ratio"] = float64(proxied) / float64(total)
	lp.vals["node.repl_bytes_per_rating"] = replBytes / max(replRatings, 1)
	return nil
}

// replUser is the wire form of one user's replicated state, as the
// node's replicator builds it.
func replUser(st server.UserState) wire.ReplUser {
	ru := wire.ReplUser{UID: uint32(st.Profile.User())}
	for _, it := range st.Profile.Liked() {
		ru.Liked = append(ru.Liked, uint32(it))
	}
	for _, it := range st.Profile.Disliked() {
		ru.Disliked = append(ru.Disliked, uint32(it))
	}
	for _, v := range st.Neighbors {
		ru.Neighbors = append(ru.Neighbors, uint32(v))
	}
	for _, it := range st.Recs {
		ru.Recs = append(ru.Recs, uint32(it))
	}
	return ru
}

// admitProbe prices the per-request admission tax: one uncontended
// acquire and release on a bounded class.
func (lp *layerPass) admitProbe() error {
	g := admit.New(admit.Config{MaxRating: 64})
	start := time.Now()
	for i := 0; i < gateIters; i++ {
		release, ok := g.Acquire(lp.ctx, admit.Rating)
		if !ok {
			return errors.New("uncontended gate shed a request")
		}
		release()
	}
	lp.vals["admit.acquire_ns"] = float64(time.Since(start).Nanoseconds()) / gateIters
	return nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// persistProbe snapshots the warmed engine.
func (lp *layerPass) persistProbe() error {
	var cw countingWriter
	start := time.Now()
	if err := persist.Capture(lp.eng).Encode(&cw); err != nil {
		return err
	}
	lp.vals["persist.capture_encode_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	lp.vals["persist.snapshot_mb"] = float64(cw.n) / 1e6
	return nil
}

// spanMetrics turns span means and boundary counts into the per-layer
// metrics.
func (lp *layerPass) spanMetrics() {
	us := func(span string) float64 { return meanUS(lp.t.spans, span) }
	ops := lp.sums["ops"]
	for metric, span := range map[string]string{
		"core.sample_us":              "core.sample",
		"widget.knn_us":               "widget.knn",
		"widget.recommend_us":         "widget.recommend",
		"widget.decompress_us":        "widget.decompress",
		"widget.decode_us":            "widget.decode",
		"widget.execute_payload_us":   "widget.execute_payload",
		"server.job_us":               "server.job",
		"server.payload_us":           "server.payload",
		"server.apply_result_us":      "server.apply_result",
		"server.read_us":              "server.read",
		"server.next_job_us":          "server.next_job",
		"server.ack_us":               "server.ack",
		"wire.decode_job_us":          "wire.decode_job",
		"wire.decompress_us":          "wire.decompress",
		"wire.encode_result_us":       "wire.encode_result",
		"wire.decode_result_us":       "wire.decode_result",
		"client.http_job_us":          "client.http_job",
		"client.http_result_us":       "client.http_result",
		"client.http_rate_batch_us":   "client.http_rate_batch",
		"client.framed_job_us":        "client.framed_job",
		"client.framed_rate_batch_us": "client.framed_rate_batch",
		"frame.roundtrip_us":          "frame.roundtrip",
		"ws.roundtrip_us":             "ws.roundtrip",
		"node.rate_batch_us":          "node.rate_batch",
		"node.replicate_us":           "node.replicate",
	} {
		lp.vals[metric] = us(span)
	}
	lp.vals["server.rate_us"] = us("server.rate_batch") * ops / lp.sums["ratings"]
	// Job builds the typed message; the serving path appends cached
	// fragments instead, once as bare JSON (framed plane) and once with
	// the gzip twin spliced in (HTTP). The difference of those two is
	// what compression costs.
	lp.vals["server.encode_gzip_us"] = us("server.payload") - us("server.job_json")
	lp.vals["core.score_ns"] = us("core.score") * 1e3 * ops / max(lp.sums["scored"], 1)
	lp.vals["core.candidates"] = lp.sums["core.candidates"] / ops
	for _, m := range []string{"wire.job_json_bytes", "wire.job_gz_bytes", "wire.result_bytes"} {
		lp.vals[m] = lp.sums[m] / ops
	}
	lp.vals["wire.gzip_ratio"] = lp.sums["wire.job_json_bytes"] / lp.sums["wire.job_gz_bytes"]
	// What the transport adds on top of the server-side work it carries:
	// HTTP ships the gzip payload, the framed plane the bare JSON.
	lp.vals["client.http_overhead_us"] = us("client.http_job") - us("server.payload")
	lp.vals["client.framed_overhead_us"] = us("client.framed_job") - us("server.job_json")
	lp.vals["cluster.route_overhead_us"] = us("cluster.rate_batch") - us("cluster.engine_rate_batch")
}

// printSelfTimes shows where a replayed op's time went: each layer's
// self time (its spans minus what their children cover) as a share of
// the whole op, largest first.
func (lp *layerPass) printSelfTimes() {
	var replayed []span
	for _, s := range lp.t.spans {
		if s.Op > 0 {
			replayed = append(replayed, s)
		}
	}
	self := selfByName(replayed)
	names := make([]string, 0, len(self))
	var total int64
	for name, ns := range self {
		names = append(names, name)
		total += ns
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("%s replay self time:", lp.w.name)
	for _, name := range names {
		fmt.Printf(" %s %.1f%%", name, 100*float64(self[name])/float64(total))
	}
	fmt.Println()
}

// benchMetrics relates the traced pass to the untraced process run.
func (lp *layerPass) benchMetrics(proc *runResult) {
	v := lp.vals
	v["bench.client_cpu_us_per_op"] = proc.clientCPU
	v["bench.op_mean_ms"] = proc.opMeanMS
	// The stages an op of this workload waits for, one after the other.
	var sumUS float64
	switch {
	case lp.w.kind == kindCycle:
		sumUS = v["client.http_rate_batch_us"] + v["client.http_job_us"] + v["wire.decode_job_us"] +
			v["widget.knn_us"] + v["widget.recommend_us"] + v["client.http_result_us"]
	case lp.w.kind == kindRefresh:
		sumUS = v["ws.roundtrip_us"] + v["server.next_job_us"] + v["wire.decode_job_us"] +
			v["widget.knn_us"] + v["widget.recommend_us"] + v["wire.encode_result_us"]
	case lp.w.twoNode:
		sumUS = v["node.rate_batch_us"] + v["client.framed_rate_batch_us"] - meanUS(lp.t.spans, "server.rate_batch")
	default:
		sumUS = v["client.framed_rate_batch_us"]
	}
	ratio := sumUS / 1e3 / proc.opMeanMS
	v["bench.stage_sum_ratio"] = ratio
	if ratio < 0.8 || ratio > 1.2 {
		fmt.Printf("%s NOTE stage sum %.3f ms is %.2f of the process run's mean op latency %.3f ms; the rest is what one goroutine in one process cannot see: waiting behind the other client goroutines' ops and wake-ups between CPUs (README, per-layer metrics)\n",
			lp.w.name, sumUS/1e3, ratio, proc.opMeanMS)
	}
}
