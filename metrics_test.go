package hyrec

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestMetricsCarryEveryStatsKey: /stats and /metrics render one map, so
// every numeric /stats key is a hyrec_<key> gauge on /metrics, for a
// single engine and for a two-partition cluster, with the scheduler's
// counters included.
func TestMetricsCarryEveryStatsKey(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.LeaseTTL = time.Minute
	for name, svc := range map[string]Backend{"engine": NewEngine(cfg), "cluster": NewCluster(cfg, 2)} {
		t.Run(name, func(t *testing.T) {
			srv := NewServiceServer(svc, 0)
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() { ts.Close(); srv.Close(); svc.Close() })
			for u := UserID(1); u <= 20; u++ {
				if err := svc.Rate(context.Background(), u, ItemID(u%7), true); err != nil {
					t.Fatal(err)
				}
			}
			get := func(path string) []byte {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
				}
				return body
			}
			var stats map[string]any
			if err := json.Unmarshal(get("/stats"), &stats); err != nil {
				t.Fatal(err)
			}
			metrics := "\n" + string(get("/metrics"))
			numeric := 0
			for k, v := range stats {
				var want string
				switch v.(type) {
				case float64:
					want = "\nhyrec_" + k + " "
				case []any:
					want = "\nhyrec_" + k + "{"
				default:
					continue
				}
				numeric++
				if !strings.Contains(metrics, want) {
					t.Errorf("/stats key %q (%v) has no %q line on /metrics", k, v, strings.TrimSpace(want))
				}
			}
			if numeric < 20 {
				t.Fatalf("only %d numeric /stats keys: %v", numeric, stats)
			}
		})
	}
}
