package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// A widget is untrusted: whatever it posts, its KNN row must respect the
// protocol shape (≤ K entries, no duplicates, no self).
func TestApplyResultCapsMaliciousNeighborList(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	cfg.K = 5
	e := NewEngine(cfg)
	for u := core.UserID(1); u <= 100; u++ {
		e.Rate(tctx, u, 1, true)
	}

	res := &wire.Result{UID: 1}
	for v := uint32(2); v <= 90; v++ {
		res.Neighbors = append(res.Neighbors, v)
	}
	if _, err := e.ApplyResult(tctx, res); err != nil {
		t.Fatal(err)
	}
	if got := len(e.KNN().Get(1)); got != cfg.K {
		t.Fatalf("stored %d neighbors, want capped at %d", got, cfg.K)
	}
}

func TestApplyResultDedupsAndDropsSelf(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	cfg.K = 10
	e := NewEngine(cfg)
	for u := core.UserID(1); u <= 5; u++ {
		e.Rate(tctx, u, 1, true)
	}

	res := &wire.Result{UID: 1, Neighbors: []uint32{2, 2, 1, 3, 3, 3, 1, 4}}
	if _, err := e.ApplyResult(tctx, res); err != nil {
		t.Fatal(err)
	}
	got := e.KNN().Get(1)
	want := []core.UserID{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", got, want)
		}
	}
}

func TestApplyResultCapsRecommendations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	cfg.R = 3
	e := NewEngine(cfg)
	e.Rate(tctx, 1, 1, true)

	res := &wire.Result{UID: 1, Recommendations: []uint32{10, 11, 12, 13, 14, 15}}
	recs, err := e.ApplyResult(tctx, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != cfg.R {
		t.Fatalf("returned %d recommendations, want capped at %d", len(recs), cfg.R)
	}
}

// HTTP-level abuse: an oversized /neighbors POST is absorbed with the
// same caps, never amplifying into server state.
func TestHTTPNeighborsFloodCapped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	cfg.K = 10
	e := NewEngine(cfg)
	for u := core.UserID(1); u <= 200; u++ {
		e.Rate(tctx, u, 1, true)
	}
	s := NewHTTPServer(e, 0)
	h := s.Handler()

	flood := wire.Result{UID: 1}
	for v := uint32(2); v <= 200; v++ {
		flood.Neighbors = append(flood.Neighbors, v)
	}
	body, err := json.Marshal(flood)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/neighbors", bytes.NewReader(body)))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("flood POST: %d %s", rec.Code, rec.Body.String())
	}
	if got := len(e.KNN().Get(1)); got != cfg.K {
		t.Fatalf("flood stored %d neighbors, want %d", got, cfg.K)
	}
}

func TestHTTPNeighborsGarbageBody(t *testing.T) {
	e := NewEngine(DefaultConfig())
	s := NewHTTPServer(e, 0)
	h := s.Handler()

	for _, body := range []string{"", "{", `{"uid": "not-a-number"}`, "\x00\x01\x02"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/neighbors", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
}

// A widget receiving a truncated or corrupted gzip payload must fail
// cleanly, and the server's payload must inflate correctly end-to-end.
func TestJobPayloadCorruptionHandling(t *testing.T) {
	cfg := DefaultConfig()
	e := NewEngine(cfg)
	for u := core.UserID(1); u <= 10; u++ {
		e.Rate(tctx, u, core.ItemID(u%3), true)
	}
	_, gz, err := e.AppendJobPayload(tctx, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: the pristine payload inflates and parses.
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	zr.Close()

	// Truncations and bit flips must yield errors, not garbage jobs.
	corruptions := [][]byte{
		gz[:len(gz)/2],
		gz[:5],
		append(append([]byte{}, gz[:len(gz)-3]...), 0xFF, 0xFF, 0xFF),
	}
	flipped := append([]byte(nil), gz...)
	flipped[len(flipped)/2] ^= 0xA5
	corruptions = append(corruptions, flipped)

	for i, c := range corruptions {
		if _, err := wire.Decompress(c); err == nil {
			// Flips can land in gzip's padding; only fail when decompress
			// succeeded AND the JSON also parses as a job with candidates.
			raw, _ := wire.Decompress(c)
			if job, jerr := wire.DecodeJob(raw); jerr == nil && job != nil && len(job.Candidates) > 0 {
				t.Errorf("corruption %d silently produced a plausible job", i)
			}
		}
	}
}
