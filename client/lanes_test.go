package client

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hyrec"
)

// failingRater is an engine whose RateBatch answers a chosen error,
// counting every call that reaches it.
type failingRater struct {
	*hyrec.Engine
	fail  error
	calls atomic.Int64
}

func (f *failingRater) RateBatch(context.Context, []hyrec.Rating) error {
	f.calls.Add(1)
	return f.fail
}

// TestLanesAgree: a backend error costs the same number of backend
// calls and surfaces as the same typed error whether the client speaks
// HTTP or the framed lane — one exchange decides retries, overload
// waits and not_primary re-targeting for both.
func TestLanesAgree(t *testing.T) {
	old := overloadBackoffCap
	overloadBackoffCap = time.Millisecond
	t.Cleanup(func() { overloadBackoffCap = old })

	sentinels := []error{hyrec.ErrStaleEpoch, hyrec.ErrUnknownUser, hyrec.ErrUnknownLease,
		hyrec.ErrNotPrimary, hyrec.ErrOverloaded}
	sentinelOf := func(err error) error {
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return s
			}
		}
		return nil
	}
	for _, row := range []struct {
		name  string
		fail  error
		calls int64
	}{
		{"internal", errors.New("backend exploded"), 4},
		{"not_primary", hyrec.ErrNotPrimary, 2},
		{"overloaded", hyrec.ErrOverloaded, 2},
		{"unknown_user", hyrec.ErrUnknownUser, 1},
		{"stale_epoch", hyrec.ErrStaleEpoch, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			eng := hyrec.NewEngine(hyrec.DefaultConfig())
			backend := &failingRater{Engine: eng, fail: row.fail}
			srv := hyrec.NewServiceServer(backend, 0)
			ts := httptest.NewServer(srv.Handler())
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.ServeFrames(ln)
			t.Cleanup(func() { ts.Close(); srv.Close(); eng.Close() })

			type outcome struct {
				calls    int64
				sentinel error
				status   int
				code     string
			}
			var got [2]outcome
			for i, opts := range [][]Option{nil, {WithFramed(ln.Addr().String())}} {
				c := New(ts.URL, append(opts, WithRetries(3, time.Millisecond))...)
				before := backend.calls.Load()
				err := c.RateBatch(tctx, []hyrec.Rating{{User: 1, Item: 2, Liked: true}})
				c.Close()
				var apiErr *APIError
				if !errors.As(err, &apiErr) {
					t.Fatalf("lane %d: err = %v, want an *APIError", i, err)
				}
				got[i] = outcome{backend.calls.Load() - before, sentinelOf(err), apiErr.Status, apiErr.Code}
			}
			if got[0] != got[1] {
				t.Fatalf("lanes disagree:\nhttp   %+v\nframed %+v", got[0], got[1])
			}
			if got[0].calls != row.calls || got[0].code != row.name || got[0].sentinel != sentinelOf(row.fail) {
				t.Fatalf("both lanes: %+v, want %d calls, code %s, sentinel %v", got[0], row.calls, row.name, sentinelOf(row.fail))
			}
		})
	}
}
