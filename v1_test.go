package hyrec

// Wire-protocol v1 and identification edge cases, exercised through both
// deployment shapes (single engine and partitioned cluster) over the
// shared mux — the contract the typed client (hyrec/client) relies on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// frontend bundles one deployment shape for the table-driven protocol
// tests: the Service under test, its HTTP handler, and direct state
// accessors for verification.
type frontend struct {
	name   string
	svc    Service
	ts     *httptest.Server
	known  func(UserID) bool
	rotate func()
}

func newFrontends(t *testing.T) []frontend {
	t.Helper()
	cfg := DefaultConfig()
	cfg.K = 3

	eng := NewEngine(cfg)
	es := NewServiceServer(eng, 0)
	ets := httptest.NewServer(es.Handler())
	t.Cleanup(func() { ets.Close(); es.Close() })

	clus := NewCluster(cfg, 3)
	cs := NewServiceServer(clus, 0)
	cts := httptest.NewServer(cs.Handler())
	t.Cleanup(func() { cts.Close(); cs.Close() })

	return []frontend{
		{"engine", eng, ets, eng.KnownUser, eng.RotateAnonymizer},
		{"cluster", clus, cts, clus.KnownUser, clus.RotateAnonymizers},
	}
}

// decodeEnvelope fails the test unless the response is a well-formed v1
// error envelope with the expected status and code.
func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q, want application/json", ct)
	}
	var env wire.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Error.Code != wantCode {
		t.Fatalf("error code = %q, want %q (message %q)", env.Error.Code, wantCode, env.Error.Message)
	}
	if env.Error.Message == "" {
		t.Fatal("error envelope has empty message")
	}
}

// TestV1FullLoop drives the complete widget protocol over /v1 on both
// front-ends: batch rate → job → widget execution → result → recs and
// neighbors.
func TestV1FullLoop(t *testing.T) {
	for _, fe := range newFrontends(t) {
		t.Run(fe.name, func(t *testing.T) {
			// Batch-rate a small community.
			var req wire.RateRequest
			for u := uint32(1); u <= 12; u++ {
				req.Ratings = append(req.Ratings,
					wire.RatingMsg{UID: u, Item: u % 3, Liked: true},
					wire.RatingMsg{UID: u, Item: 100, Liked: true})
			}
			body, _ := json.Marshal(&req)
			resp, err := http.Post(fe.ts.URL+"/v1/rate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var rr wire.RateResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || rr.Accepted != len(req.Ratings) {
				t.Fatalf("rate: status %d accepted %d, want 200/%d", resp.StatusCode, rr.Accepted, len(req.Ratings))
			}

			w := widget.New()
			gotRecs := false
			for round := 0; round < 3; round++ {
				for u := uint32(1); u <= 12; u++ {
					jresp, err := http.Get(fmt.Sprintf("%s/v1/job?uid=%d", fe.ts.URL, u))
					if err != nil {
						t.Fatal(err)
					}
					raw, err := io.ReadAll(jresp.Body)
					jresp.Body.Close()
					if jresp.StatusCode != http.StatusOK {
						t.Fatalf("job uid=%d: status %d (%s)", u, jresp.StatusCode, raw)
					}
					if err != nil {
						t.Fatal(err)
					}
					job, err := wire.DecodeJob(raw)
					if err != nil {
						t.Fatalf("job uid=%d: %v", u, err)
					}
					res, _ := w.Execute(job)
					rbody, _ := json.Marshal(res)
					presp, err := http.Post(fe.ts.URL+"/v1/result", "application/json", bytes.NewReader(rbody))
					if err != nil {
						t.Fatal(err)
					}
					var recs wire.RecsResponse
					if err := json.NewDecoder(presp.Body).Decode(&recs); err != nil {
						t.Fatal(err)
					}
					presp.Body.Close()
					if presp.StatusCode != http.StatusOK {
						t.Fatalf("result uid=%d: status %d", u, presp.StatusCode)
					}
					if len(recs.Recs) > 0 {
						gotRecs = true
					}
				}
			}
			if !gotRecs {
				t.Fatal("no recommendations through /v1 after three rounds")
			}

			// /v1/recs and /v1/neighbors agree with the applied state.
			sawRecs, sawHood := false, false
			for u := uint32(1); u <= 12; u++ {
				rresp, err := http.Get(fmt.Sprintf("%s/v1/recs?uid=%d", fe.ts.URL, u))
				if err != nil {
					t.Fatal(err)
				}
				var recs wire.RecsResponse
				if err := json.NewDecoder(rresp.Body).Decode(&recs); err != nil {
					t.Fatal(err)
				}
				rresp.Body.Close()
				if len(recs.Recs) > 0 {
					sawRecs = true
				}
				nresp, err := http.Get(fmt.Sprintf("%s/v1/neighbors?uid=%d", fe.ts.URL, u))
				if err != nil {
					t.Fatal(err)
				}
				var hood wire.NeighborsResponse
				if err := json.NewDecoder(nresp.Body).Decode(&hood); err != nil {
					t.Fatal(err)
				}
				nresp.Body.Close()
				if len(hood.Neighbors) > 0 {
					sawHood = true
				}
			}
			if !sawRecs || !sawHood {
				t.Fatalf("retained state missing: recs=%v neighbors=%v", sawRecs, sawHood)
			}
		})
	}
}

// TestExplicitUIDBeatsCookieBothFrontends pins the identification
// precedence rule on every front-end: an explicit ?uid always wins over
// a conflicting cookie, and the cookie's user is left untouched.
func TestExplicitUIDBeatsCookieBothFrontends(t *testing.T) {
	for _, fe := range newFrontends(t) {
		t.Run(fe.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodPost, fe.ts.URL+"/rate?uid=77&item=9", nil)
			req.AddCookie(&http.Cookie{Name: "hyrec_uid", Value: "88"})
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("/rate: status %d", resp.StatusCode)
			}
			if !fe.known(77) {
				t.Fatal("explicit uid 77 not registered")
			}
			if fe.known(88) {
				t.Fatal("cookie user 88 registered despite explicit uid")
			}
		})
	}
}

// TestV1MalformedBatchBodies verifies malformed /v1/rate bodies produce
// bad_request envelopes on both front-ends.
func TestV1MalformedBatchBodies(t *testing.T) {
	for _, fe := range newFrontends(t) {
		t.Run(fe.name, func(t *testing.T) {
			for _, body := range []string{"not json", `{"ratings": 5}`, `[1,2,3]`} {
				resp, err := http.Post(fe.ts.URL+"/v1/rate", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				decodeEnvelope(t, resp, http.StatusBadRequest, wire.CodeBadRequest)
			}
		})
	}
}

// TestV1OversizedBatches verifies both protocol limits: too many ratings
// in one batch, and a body exceeding the byte cap — each rejected with a
// too_large envelope rather than truncated.
func TestV1OversizedBatches(t *testing.T) {
	for _, fe := range newFrontends(t) {
		t.Run(fe.name, func(t *testing.T) {
			// One rating over the batch limit.
			var req wire.RateRequest
			for i := 0; i <= wire.MaxBatchRatings; i++ {
				req.Ratings = append(req.Ratings, wire.RatingMsg{UID: uint32(i + 1), Item: 1, Liked: true})
			}
			body, _ := json.Marshal(&req)
			resp, err := http.Post(fe.ts.URL+"/v1/rate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			decodeEnvelope(t, resp, http.StatusRequestEntityTooLarge, wire.CodeTooLarge)

			// A body over the byte cap (valid JSON prefix so the decoder
			// keeps reading until the reader cuts it off).
			var huge bytes.Buffer
			huge.WriteString(`{"ratings":[`)
			for huge.Len() <= wire.MaxBodyBytes {
				huge.WriteString(`{"uid":1,"item":1,"liked":true},`)
			}
			huge.WriteString(`{"uid":1,"item":1,"liked":true}]}`)
			resp, err = http.Post(fe.ts.URL+"/v1/rate", "application/json", bytes.NewReader(huge.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			decodeEnvelope(t, resp, http.StatusRequestEntityTooLarge, wire.CodeTooLarge)
		})
	}
}

// TestV1ErrorEnvelopeShapes verifies the stable machine codes: wrong
// method, missing identification, and a stale-epoch result — on both
// front-ends (a cluster-unroutable result maps to the same stale_epoch
// code the single engine reports).
func TestV1ErrorEnvelopeShapes(t *testing.T) {
	for _, fe := range newFrontends(t) {
		t.Run(fe.name, func(t *testing.T) {
			// Wrong method.
			resp, err := http.Get(fe.ts.URL + "/v1/rate")
			if err != nil {
				t.Fatal(err)
			}
			decodeEnvelope(t, resp, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed)

			// Missing identification.
			resp, err = http.Get(fe.ts.URL + "/v1/recs")
			if err != nil {
				t.Fatal(err)
			}
			decodeEnvelope(t, resp, http.StatusBadRequest, wire.CodeBadRequest)

			// Stale epoch: mint a job, evict its epoch, post the result.
			resp, err = http.Post(fe.ts.URL+"/v1/rate", "application/json",
				strings.NewReader(`{"ratings":[{"uid":5,"item":1,"liked":true}]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			jresp, err := http.Get(fe.ts.URL + "/v1/job?uid=5")
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(jresp.Body)
			jresp.Body.Close()
			job, err := wire.DecodeJob(raw)
			if err != nil {
				t.Fatal(err)
			}
			res, _ := widget.New().Execute(job)
			fe.rotate()
			fe.rotate()
			rbody, _ := json.Marshal(res)
			resp, err = http.Post(fe.ts.URL+"/v1/result", "application/json", bytes.NewReader(rbody))
			if err != nil {
				t.Fatal(err)
			}
			decodeEnvelope(t, resp, http.StatusGone, wire.CodeStaleEpoch)
		})
	}
}

// TestV1JobGzipNegotiation verifies /v1/job declines gzip: it answers
// job format 3 bare whether or not the client offers gzip, unlike the
// always-gzip legacy /online.
func TestV1JobGzipNegotiation(t *testing.T) {
	for _, fe := range newFrontends(t) {
		t.Run(fe.name, func(t *testing.T) {
			raw := &http.Client{Transport: &http.Transport{DisableCompression: true}}
			for _, accept := range []string{"", "gzip", "gzip, deflate, br", "*"} {
				req, _ := http.NewRequest(http.MethodGet, fe.ts.URL+"/v1/job?uid=9", nil)
				if accept != "" {
					req.Header.Set("Accept-Encoding", accept)
				}
				resp, err := raw.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if enc := resp.Header.Get("Content-Encoding"); enc != "" {
					t.Fatalf("Accept-Encoding %q: Content-Encoding = %q, want none", accept, enc)
				}
				if len(body) == 0 || body[0] != wire.JobFormat {
					t.Fatalf("Accept-Encoding %q: body does not open with the format byte", accept)
				}
				if _, err := wire.DecodeJob(body); err != nil {
					t.Fatalf("Accept-Encoding %q: body is not a job: %v", accept, err)
				}
			}
		})
	}
}

// TestV1JobMintsCookie verifies first-contact minting works identically
// on /v1/job and the legacy /online, on both front-ends.
func TestV1JobMintsCookie(t *testing.T) {
	for _, fe := range newFrontends(t) {
		t.Run(fe.name, func(t *testing.T) {
			resp, err := http.Get(fe.ts.URL + "/v1/job")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("anonymous /v1/job: status %d", resp.StatusCode)
			}
			minted := ""
			for _, ck := range resp.Cookies() {
				if ck.Name == "hyrec_uid" {
					minted = ck.Value
				}
			}
			if minted == "" {
				t.Fatal("no identification cookie minted on /v1/job first contact")
			}
		})
	}
}
