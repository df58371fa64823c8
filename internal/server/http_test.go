package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

func newTestHTTP(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e := NewEngine(testConfig())
	s := NewServer(e, 0)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return e, ts
}

// rawClient disables Go's transparent response decompression so tests can
// observe the gzip bytes actually sent on the wire (a browser widget sees
// decompressed JSON; these tests verify the wire format itself).
func rawClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestHTTP(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// An unidentified /online is a first visit: the server mints an identity
// and hands it back as a cookie (Section 4.2), rather than erroring.
func TestOnlineWithoutUIDMintsCookie(t *testing.T) {
	_, ts := newTestHTTP(t)
	resp, err := http.Get(ts.URL + "/online")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	found := false
	for _, c := range resp.Cookies() {
		if c.Name == UIDCookieName && c.Value != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s cookie on first visit", UIDCookieName)
	}
}

func TestOnlineReturnsGzipJob(t *testing.T) {
	e, ts := newTestHTTP(t)
	e.Rate(tctx, 1, 5, true)
	e.Rate(tctx, 2, 5, true)

	resp, err := rawClient().Get(ts.URL + "/online?uid=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("Content-Encoding = %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := wire.Decompress(body)
	if err != nil {
		t.Fatal(err)
	}
	job, err := wire.DecodeJob(raw)
	if err != nil {
		t.Fatal(err)
	}
	if job.K != 3 || len(job.Profile.Liked) != 1 {
		t.Fatalf("job = %+v", job)
	}
}

func TestOnlineWithPiggybackedRating(t *testing.T) {
	e, ts := newTestHTTP(t)
	resp, err := http.Get(ts.URL + "/online?uid=4&item=9&liked=true")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !e.Profiles().Get(4).LikedContains(9) {
		t.Fatal("piggybacked rating not recorded")
	}
}

func TestRateEndpoint(t *testing.T) {
	e, ts := newTestHTTP(t)
	resp, err := http.Post(ts.URL+"/rate?uid=3&item=7&liked=false", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	p := e.Profiles().Get(3)
	if !p.Contains(7) || p.LikedContains(7) {
		t.Fatal("dislike not recorded")
	}
}

func TestRateBadParams(t *testing.T) {
	_, ts := newTestHTTP(t)
	for _, path := range []string{"/rate?uid=x&item=1", "/rate?uid=1&item=x", "/rate?uid=1&item=1&liked=zzz"} {
		resp, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestFullWidgetRoundTripOverHTTP is the paper's interaction diagram
// (Figure 1, arrows 1–3) over a real HTTP stack.
func TestFullWidgetRoundTripOverHTTP(t *testing.T) {
	e, ts := newTestHTTP(t)
	// Seed the population.
	for u := core.UserID(1); u <= 8; u++ {
		e.Rate(tctx, u, core.ItemID(u%3), true)
		e.Rate(tctx, u, 100, true) // shared item
	}

	// Arrow 1: client request.
	resp, err := rawClient().Get(ts.URL + "/online?uid=1")
	if err != nil {
		t.Fatal(err)
	}
	gz, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Arrow 2: the widget executes the job.
	w := widget.New()
	res, _, err := w.ExecutePayload(gz)
	if err != nil {
		t.Fatal(err)
	}

	// Arrow 3: POST the result back.
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+"/neighbors", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("neighbors status = %d", resp2.StatusCode)
	}

	if hood, _ := e.Neighbors(tctx, 1); len(hood) == 0 {
		t.Fatal("KNN table empty after round trip")
	}

	// Recommendations are retrievable.
	resp3, err := http.Get(ts.URL + "/recommendations?uid=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var recs []core.ItemID
	if err := json.NewDecoder(resp3.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsQueryForm(t *testing.T) {
	cfg := testConfig()
	cfg.DisableAnonymizer = true
	e := NewEngine(cfg) // plain-ID engine for the query-form test
	s := NewServer(e, 0)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	e.Rate(tctx, 1, 1, true)
	e.Rate(tctx, 2, 1, true)

	q := url.Values{}
	q.Set("uid", "1")
	q.Set("epoch", "0")
	q.Set("id0", "2")
	q.Set("recs", "9,10")
	resp, err := http.Get(ts.URL + "/neighbors?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	hood, _ := e.Neighbors(tctx, 1)
	if len(hood) != 1 || hood[0] != 2 {
		t.Fatalf("neighbors = %v", hood)
	}
}

func TestNeighborsStaleEpochGives410(t *testing.T) {
	e, ts := newTestHTTP(t)
	e.Rate(tctx, 1, 1, true)
	jsonBody, _, err := e.AppendJobPayload(tctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	job, err := wire.DecodeJob(jsonBody)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := widget.New().Execute(job)
	e.RotateAnonymizer()
	e.RotateAnonymizer()

	body, _ := json.Marshal(res)
	resp, err := http.Post(ts.URL+"/neighbors", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status = %d, want 410", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	e, ts := newTestHTTP(t)
	e.Rate(tctx, 1, 1, true)
	if _, _, err := e.AppendJobPayload(tctx, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["job_bytes"] == 0 || stats["users"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestRotationLoopStartsAndStops(t *testing.T) {
	e := NewEngine(testConfig())
	s := NewHTTPServer(e, time.Millisecond)
	s.Start()
	deadline := time.After(2 * time.Second)
	for e.anon.Epoch() == 0 {
		select {
		case <-deadline:
			t.Fatal("anonymiser never rotated")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	s.Close()
	s.Close() // idempotent
}

func TestConcurrentHTTPClients(t *testing.T) {
	e, ts := newTestHTTP(t)
	for u := core.UserID(0); u < 16; u++ {
		e.Rate(tctx, u, core.ItemID(u%5), true)
	}
	errc := make(chan error, 8)
	client := rawClient()
	for g := 0; g < 8; g++ {
		go func(g int) {
			w := widget.New()
			for i := 0; i < 30; i++ {
				uid := (g*7 + i) % 16
				resp, err := client.Get(fmt.Sprintf("%s/online?uid=%d&item=%d&liked=true", ts.URL, uid, i))
				if err != nil {
					errc <- err
					return
				}
				gz, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				res, _, err := w.ExecutePayload(gz)
				if err != nil {
					errc <- err
					return
				}
				body, _ := json.Marshal(res)
				resp2, err := http.Post(ts.URL+"/neighbors", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp2.Body)
				resp2.Body.Close()
				if resp2.StatusCode != http.StatusNoContent {
					errc <- fmt.Errorf("neighbors status %d", resp2.StatusCode)
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if e.KNN().Len() == 0 {
		t.Fatal("no KNN entries after concurrent traffic")
	}
}

func TestUIDParamParsing(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		ok   bool
		want core.UserID
	}{
		{"5", true, 5}, {"0", true, 0}, {strconv.FormatUint(1<<32-1, 10), true, core.UserID(1<<32 - 1)},
		{"-1", false, 0}, {"abc", false, 0}, {strconv.FormatUint(1<<33, 10), false, 0},
	} {
		r := httptest.NewRequest(http.MethodGet, "/online?uid="+tc.raw, nil)
		got, known, err := UIDFromRequest(r)
		if tc.ok && (err != nil || !known || got != tc.want) {
			t.Errorf("uid %q: got %v known=%v, %v", tc.raw, got, known, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("uid %q: expected error", tc.raw)
		}
	}
	// No uid and no cookie: not an error, just unidentified.
	r := httptest.NewRequest(http.MethodGet, "/online", nil)
	if _, known, err := UIDFromRequest(r); known || err != nil {
		t.Errorf("empty request: known=%v err=%v", known, err)
	}
}

// refusingEngine is an engine whose single ratings are refused as on a
// replica mirror and whose job assembly reports an unknown user.
type refusingEngine struct{ *Engine }

func (refusingEngine) Rate(context.Context, core.UserID, core.ItemID, bool) error {
	return &NotPrimaryError{Partition: 3, PrimaryID: "n2", PrimaryAddr: "http://n2:8080"}
}

func (refusingEngine) AppendJob(context.Context, core.UserID, []byte) ([]byte, error) {
	return nil, fmt.Errorf("%w: 1", ErrUnknownUser)
}

// TestLegacyRoutesAnswerTypedErrors: the Table-1 routes map backend
// errors through the same writer as /v1 — a not_primary rating is a 421
// naming the primary, an unknown user a 404 — instead of a blanket 500.
func TestLegacyRoutesAnswerTypedErrors(t *testing.T) {
	e := NewEngine(testConfig())
	s := NewServer(refusingEngine{e}, 0)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close(); e.Close() })

	for _, tc := range []struct {
		method, path string
		status       int
		code         string
	}{
		{http.MethodPost, "/rate?uid=1&item=1", http.StatusMisdirectedRequest, wire.CodeNotPrimary},
		{http.MethodGet, "/online?uid=1&item=1", http.StatusMisdirectedRequest, wire.CodeNotPrimary},
		{http.MethodGet, "/online?uid=1", http.StatusNotFound, wire.CodeUnknownUser},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env wire.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != tc.status || err != nil || env.Error.Code != tc.code {
			t.Fatalf("%s %s = %d %+v (%v), want %d %s", tc.method, tc.path, resp.StatusCode, env.Error, err, tc.status, tc.code)
		}
		if tc.code == wire.CodeNotPrimary && env.Error.Primary != "http://n2:8080" {
			t.Fatalf("%s %s: envelope names primary %q", tc.method, tc.path, env.Error.Primary)
		}
	}
}

// nodePlaneEngine is an engine with every optional capability, so each
// POST route reaches its body read.
type nodePlaneEngine struct{ *Engine }

func (nodePlaneEngine) Replicate(context.Context, *wire.ReplBatch) (*wire.ReplAck, error) {
	return &wire.ReplAck{}, nil
}
func (nodePlaneEngine) ApplyNodeMap(context.Context, *wire.NodeMap) error { return nil }
func (nodePlaneEngine) Scale(context.Context, int) error                  { return nil }

// TestPostBodiesOverTheCapAre413: every POST route reads its body
// through one helper, so a body one byte over the route's cap answers
// 413 too_large wherever it is posted.
func TestPostBodiesOverTheCapAre413(t *testing.T) {
	e := NewEngine(testConfig())
	s := NewServer(nodePlaneEngine{e}, 0)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close(); e.Close() })

	for _, tc := range []struct {
		path  string
		limit int
	}{
		{"/v1/rate", wire.MaxBodyBytes},
		{"/v1/ack", wire.MaxBodyBytes},
		{"/v1/result", wire.MaxBodyBytes},
		{"/v1/nodes", wire.MaxBodyBytes},
		{"/v1/topology", wire.MaxBodyBytes},
		{"/neighbors", wire.MaxBodyBytes},
		{"/v1/replicate", wire.MaxReplBodyBytes},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(bytes.Repeat([]byte{'x'}, tc.limit+1)))
		if err != nil {
			t.Fatal(err)
		}
		var env wire.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || env.Error.Code != wire.CodeTooLarge {
			t.Errorf("POST %s with %d bytes = %d %+v (%v), want 413 %s", tc.path, tc.limit+1, resp.StatusCode, env.Error, err, wire.CodeTooLarge)
		}
	}
}
