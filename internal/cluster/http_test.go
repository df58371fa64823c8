package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// rawClient fetches without transparent gzip decompression, so /online
// payloads arrive exactly as a browser widget would see them.
func rawClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}}
}

func newTestFrontend(t *testing.T, nParts int) (*Cluster, *httptest.Server) {
	t.Helper()
	c := New(testConfig(), nParts)
	hs := server.NewServer(c, 0)
	ts := httptest.NewServer(hs.Handler())
	t.Cleanup(func() {
		ts.Close()
		hs.Close()
	})
	return c, ts
}

// TestHTTPFullLoop drives the complete widget protocol over the fan-out
// front-end for users landing on different partitions: /rate, /online,
// widget execution, POST /neighbors, /recommendations.
func TestHTTPFullLoop(t *testing.T) {
	c, ts := newTestFrontend(t, 4)
	w := widget.New()

	// Seed ratings for a population spanning all partitions.
	seenParts := make(map[int]bool)
	for u := 1; u <= 60; u++ {
		seenParts[c.Partition(core.UserID(u))] = true
		for j := 0; j < 4; j++ {
			resp, err := http.Post(fmt.Sprintf("%s/rate?uid=%d&item=%d&liked=true", ts.URL, u, u%10+j), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("/rate uid=%d: status %d", u, resp.StatusCode)
			}
		}
	}
	if len(seenParts) != 4 {
		t.Fatalf("test population covers %d/4 partitions", len(seenParts))
	}

	for u := 1; u <= 60; u++ {
		// /online returns the gzip personalization job.
		resp, err := rawClient().Get(fmt.Sprintf("%s/online?uid=%d", ts.URL, u))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/online uid=%d: status %d", u, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Encoding"); got != "gzip" {
			t.Fatalf("/online uid=%d: Content-Encoding %q", u, got)
		}
		gz, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}

		res, _, err := w.ExecutePayload(gz)
		if err != nil {
			t.Fatalf("widget uid=%d: %v", u, err)
		}
		body, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		post, err := http.Post(ts.URL+"/neighbors", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		post.Body.Close()
		if post.StatusCode != http.StatusNoContent {
			t.Fatalf("POST /neighbors uid=%d: status %d", u, post.StatusCode)
		}
	}

	// Recommendations are served from the owning partition's bookkeeping.
	withRecs := 0
	for u := 1; u <= 60; u++ {
		resp, err := http.Get(fmt.Sprintf("%s/recommendations?uid=%d", ts.URL, u))
		if err != nil {
			t.Fatal(err)
		}
		var recs []core.ItemID
		if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
			t.Fatalf("/recommendations uid=%d: %v", u, err)
		}
		resp.Body.Close()
		if len(recs) > 0 {
			withRecs++
		}
	}
	if withRecs == 0 {
		t.Fatal("no user got recommendations through the fan-out front-end")
	}

	// Neighborhoods exist on the owning partitions.
	withHood := 0
	for u := core.UserID(1); u <= 60; u++ {
		hood, _ := c.Neighbors(context.Background(), u)
		if len(hood) > 0 {
			withHood++
		}
	}
	if withHood < 50 {
		t.Fatalf("only %d/60 users have neighborhoods after a full HTTP round", withHood)
	}
}

// TestHTTPMintCookie verifies the first-contact flow: /online without
// identification mints a cluster-wide user ID, sets the cookie, and
// registers the user on exactly its owning partition.
func TestHTTPMintCookie(t *testing.T) {
	c, ts := newTestFrontend(t, 4)

	resp, err := http.Get(ts.URL + "/online")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/online (anonymous): status %d", resp.StatusCode)
	}
	var minted core.UserID
	for _, ck := range resp.Cookies() {
		if ck.Name == server.UIDCookieName {
			v, err := strconv.ParseUint(ck.Value, 10, 32)
			if err != nil {
				t.Fatalf("bad cookie value %q", ck.Value)
			}
			minted = core.UserID(v)
		}
	}
	if minted == 0 {
		t.Fatal("no identification cookie set on first contact")
	}
	owner := c.Partition(minted)
	for i := 0; i < c.NumPartitions(); i++ {
		known := c.Engine(i).Profiles().Known(minted)
		if known != (i == owner) {
			t.Fatalf("minted user %d: partition %d Known=%v (owner %d)", minted, i, known, owner)
		}
	}

	// The cookie identifies the user on subsequent requests.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/online", nil)
	req.AddCookie(&http.Cookie{Name: server.UIDCookieName, Value: strconv.FormatUint(uint64(minted), 10)})
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/online (cookie): status %d", resp2.StatusCode)
	}
	for _, ck := range resp2.Cookies() {
		if ck.Name == server.UIDCookieName {
			t.Fatal("cookie re-minted for an identified request")
		}
	}
}

// TestHTTPMissingUID verifies endpoints that require identification
// reject anonymous requests instead of forwarding them.
func TestHTTPMissingUID(t *testing.T) {
	_, ts := newTestFrontend(t, 2)
	for _, path := range []string{"/rate?item=1", "/recommendations"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s without uid: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestHTTPStatsAggregation verifies /stats sums over partitions and
// reports the per-partition user split.
func TestHTTPStatsAggregation(t *testing.T) {
	_, ts := newTestFrontend(t, 4)
	for u := 1; u <= 40; u++ {
		resp, err := http.Get(fmt.Sprintf("%s/online?uid=%d", ts.URL, u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Partitions   int     `json:"partitions"`
		Users        int64   `json:"users"`
		UsersPerPart []int64 `json:"users_per_part"`
		JobBytes     int64   `json:"job_bytes"`
		Messages     int64   `json:"messages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Partitions != 4 {
		t.Fatalf("partitions = %d, want 4", stats.Partitions)
	}
	if stats.Users != 40 {
		t.Fatalf("users = %d, want 40", stats.Users)
	}
	var sum int64
	for _, n := range stats.UsersPerPart {
		sum += n
	}
	if sum != stats.Users {
		t.Fatalf("users_per_part sums to %d, want %d", sum, stats.Users)
	}
	if stats.JobBytes == 0 || stats.Messages == 0 {
		t.Fatalf("aggregated meters are zero: %+v", stats)
	}
}

// TestHTTPStaleResultGone verifies a result from an evicted epoch gets
// 410 Gone from the front-end, mirroring the single-engine contract.
func TestHTTPStaleResultGone(t *testing.T) {
	c, ts := newTestFrontend(t, 2)
	w := widget.New()

	for u := 1; u <= 10; u++ {
		resp, err := http.Post(fmt.Sprintf("%s/rate?uid=%d&item=3&liked=true", ts.URL, u), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := rawClient().Get(ts.URL + "/online?uid=1")
	if err != nil {
		t.Fatal(err)
	}
	gz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	res, _, err := w.ExecutePayload(gz)
	if err != nil {
		t.Fatal(err)
	}
	c.RotateAnonymizers()
	c.RotateAnonymizers()
	body, _ := json.Marshal(res)
	post, err := http.Post(ts.URL+"/neighbors", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusGone {
		t.Fatalf("stale result: status %d, want 410", post.StatusCode)
	}
}

// TestHTTPServerConfigSharing sanity-checks that the front-end reuses the
// partition engines (no hidden copies) so direct engine access and HTTP
// access observe the same state.
func TestHTTPServerConfigSharing(t *testing.T) {
	c, ts := newTestFrontend(t, 2)
	resp, err := http.Post(ts.URL+"/rate?uid=7&item=5&liked=true", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := c.Profile(7).Size(); got != 1 {
		t.Fatalf("profile size via cluster = %d, want 1", got)
	}
	var _ server.Config = c.Config()
}

// TestHTTPTopologyEndpoint: GET /v1/topology reports the live shape,
// POST /v1/topology performs a synchronous scale-out and reports the
// new one, and /stats carries the migrating flag and topology gauges.
func TestHTTPTopologyEndpoint(t *testing.T) {
	c, ts := newTestFrontend(t, 2)
	for u := core.UserID(1); u <= 50; u++ {
		if err := c.Rate(context.Background(), u, core.ItemID(u), true); err != nil {
			t.Fatal(err)
		}
	}

	var topo wire.Topology
	resp, err := http.Get(ts.URL + "/v1/topology")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/topology = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &topo); err != nil {
		t.Fatal(err)
	}
	if topo.Partitions != 2 || topo.Migrating {
		t.Fatalf("topology = %+v, want 2 partitions, not migrating", topo)
	}

	resp, err = http.Post(ts.URL+"/v1/topology", "application/json",
		bytes.NewReader([]byte(`{"partitions":4}`)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/topology = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &topo); err != nil {
		t.Fatal(err)
	}
	if topo.Partitions != 4 || topo.Migrating {
		t.Fatalf("post-scale topology = %+v, want 4 partitions, migration complete", topo)
	}
	if c.NumPartitions() != 4 {
		t.Fatalf("cluster did not scale: %d partitions", c.NumPartitions())
	}

	// Bad targets are refused with the typed envelope.
	resp, err = http.Post(ts.URL+"/v1/topology", "application/json",
		bytes.NewReader([]byte(`{"partitions":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(wire.CodeBadRequest)) {
		t.Fatalf("scale to 0 = %d: %s", resp.StatusCode, body)
	}

	// /stats carries the elastic-topology fields.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if migrating, ok := stats["migrating"].(bool); !ok || migrating {
		t.Fatalf("/stats migrating = %v (%T)", stats["migrating"], stats["migrating"])
	}
	if parts, _ := stats["topology_partitions"].(float64); parts != 4 {
		t.Fatalf("/stats topology_partitions = %v", stats["topology_partitions"])
	}
	if _, ok := stats["migration_users_moved_total"].(float64); !ok {
		t.Fatalf("/stats migration_users_moved_total missing: %v", stats)
	}
}

// TestHTTPScaleTargetBounded: an absurd scale target is refused with a
// typed 400 before any partition is built, and the topology stays put.
func TestHTTPScaleTargetBounded(t *testing.T) {
	c, ts := newTestFrontend(t, 2)
	before := c.Topology()
	resp, err := http.Post(ts.URL+"/v1/topology", "application/json",
		bytes.NewReader([]byte(`{"partitions":1073741824}`)))
	if err != nil {
		t.Fatal(err)
	}
	var env wire.ErrorEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || err != nil || env.Error.Code != wire.CodeBadRequest {
		t.Fatalf("scale to 2^30 = %d %+v (%v), want 400 %s", resp.StatusCode, env.Error, err, wire.CodeBadRequest)
	}
	if after := c.Topology(); after.Partitions != before.Partitions || after.UsersMovedTotal != 0 || after.Migrating {
		t.Fatalf("topology moved from %+v to %+v on a refused scale", before, after)
	}
}

// TestHTTPMetricsAlias: GET /metrics serves the same counters as
// /stats in Prometheus text format, including the elastic-topology
// gauges the satellite names.
func TestHTTPMetricsAlias(t *testing.T) {
	c, ts := newTestFrontend(t, 2)
	for u := core.UserID(1); u <= 20; u++ {
		if err := c.Rate(context.Background(), u, core.ItemID(u), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Scale(context.Background(), 3); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"hyrec_topology_partitions 3",
		"hyrec_migration_users_moved_total",
		"hyrec_migrating 0",
		"hyrec_users ",
		"hyrec_knn_entries",
		`hyrec_users_per_part{partition="2"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}
