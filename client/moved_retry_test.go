package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrec"
)

// scripted is one canned answer for a scripted endpoint.
type scripted struct {
	status int
	body   string
}

var (
	movedAnswer   = scripted{http.StatusMisdirectedRequest, `{"error":{"code":"not_primary","message":"partition moved"}}`}
	unknownAnswer = scripted{http.StatusNotFound, `{"error":{"code":"unknown_user","message":"who"}}`}
	hoodAnswer    = scripted{http.StatusOK, `{"neighbors":[2,3]}`}
)

// TestClientMovedRetryTable exercises every branch of the retry-once
// protocol for a partition whose primary moved (421 not_primary): the
// answer triggers one topology refetch and one retry; a second one
// gives up as hyrec.ErrNotPrimary; a different error after the retry
// surfaces as itself; and a broken topology endpoint does not block the
// retry.
func TestClientMovedRetryTable(t *testing.T) {
	cases := []struct {
		name string
		// answers for successive GET /v1/neighbors calls.
		answers    []scripted
		topoStatus int // 0 → healthy topology endpoint
		wantErr    error
		wantCalls  int64 // exact endpoint hits
		wantTopo   bool  // cache refreshed with the new topology
	}{
		{
			name:      "moved then success retries once",
			answers:   []scripted{movedAnswer, hoodAnswer},
			wantCalls: 2,
			wantTopo:  true,
		},
		{
			name:      "double moved gives up",
			answers:   []scripted{movedAnswer, movedAnswer},
			wantErr:   hyrec.ErrNotPrimary,
			wantCalls: 2,
			wantTopo:  true,
		},
		{
			name:      "different error after retry surfaces as itself",
			answers:   []scripted{movedAnswer, unknownAnswer},
			wantErr:   hyrec.ErrUnknownUser,
			wantCalls: 2,
			wantTopo:  true,
		},
		{
			name:       "broken topology endpoint does not block the retry",
			answers:    []scripted{movedAnswer, hoodAnswer},
			topoStatus: http.StatusInternalServerError,
			wantCalls:  2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls, topoCalls atomic.Int64
			mux := http.NewServeMux()
			mux.HandleFunc("/v1/neighbors", func(w http.ResponseWriter, r *http.Request) {
				n := calls.Add(1)
				if int(n) > len(tc.answers) {
					t.Errorf("call %d beyond the script (retry-once violated)", n)
					w.WriteHeader(http.StatusTeapot)
					return
				}
				a := tc.answers[n-1]
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(a.status)
				w.Write([]byte(a.body))
			})
			mux.HandleFunc("/v1/topology", func(w http.ResponseWriter, r *http.Request) {
				topoCalls.Add(1)
				if tc.topoStatus != 0 {
					w.WriteHeader(tc.topoStatus)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(`{"partitions":8,"vnodes":64}`))
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()

			c := New(ts.URL)
			defer c.Close()
			hood, err := c.Neighbors(tctx, 1)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want errors.Is(%v)", err, tc.wantErr)
				}
			} else {
				if err != nil {
					t.Fatalf("Neighbors = %v, want success after one retry", err)
				}
				if len(hood) != 2 {
					t.Fatalf("retried neighbors = %v", hood)
				}
			}
			if got := calls.Load(); got != tc.wantCalls {
				t.Fatalf("endpoint hit %d times, want exactly %d", got, tc.wantCalls)
			}
			if got := topoCalls.Load(); got != 1 {
				t.Fatalf("topology refetched %d times, want 1", got)
			}
			topo := c.CachedTopology()
			if tc.wantTopo && (topo == nil || topo.Partitions != 8) {
				t.Fatalf("topology cache not refreshed: %+v", topo)
			}
			if !tc.wantTopo && topo != nil {
				t.Fatalf("topology cache unexpectedly set from a broken endpoint: %+v", topo)
			}
		})
	}
}

// TestClientMovedRetryConcurrentTopologyRefetch: many requests hit
// not_primary answers at once; every one refetches the (slow) topology
// endpoint concurrently, retries exactly once, and succeeds. The cache
// must end up at the new topology without torn state.
func TestClientMovedRetryConcurrentTopologyRefetch(t *testing.T) {
	const workers = 16
	var topoCalls atomic.Int64
	var mu sync.Mutex
	seen := make(map[string]int) // per-uid call count

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/neighbors", func(w http.ResponseWriter, r *http.Request) {
		uid := r.URL.Query().Get("uid")
		mu.Lock()
		seen[uid]++
		n := seen[uid]
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch n {
		case 1:
			w.WriteHeader(http.StatusMisdirectedRequest)
			w.Write([]byte(`{"error":{"code":"not_primary","message":"partition moved"}}`))
		case 2:
			w.Write([]byte(`{"neighbors":[9]}`))
		default:
			t.Errorf("uid %s hit the endpoint %d times (retry-once violated)", uid, n)
			w.WriteHeader(http.StatusTeapot)
		}
	})
	mux.HandleFunc("/v1/topology", func(w http.ResponseWriter, r *http.Request) {
		topoCalls.Add(1)
		time.Sleep(10 * time.Millisecond) // force the refetches to overlap
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"partitions":4,"vnodes":64}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL)
	defer c.Close()
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(u hyrec.UserID) {
			hood, err := c.Neighbors(tctx, u)
			if err == nil && len(hood) != 1 {
				err = fmt.Errorf("uid %d: neighbors = %v", u, hood)
			}
			errs <- err
		}(hyrec.UserID(i + 1))
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := topoCalls.Load(); got != workers {
		t.Fatalf("topology refetched %d times, want one per moved answer (%d)", got, workers)
	}
	topo := c.CachedTopology()
	if topo == nil || topo.Partitions != 4 {
		t.Fatalf("topology cache not settled after concurrent refetch: %+v", topo)
	}
}
