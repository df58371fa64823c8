package client

import (
	"sync"
	"testing"
	"time"

	"hyrec"
)

// rateStream is a deterministic rating stream over 64 users and 100
// items: rating n of every test and benchmark below.
func rateStream(n int) hyrec.Rating {
	return hyrec.Rating{
		User:  hyrec.UserID(n%64 + 1),
		Item:  hyrec.ItemID(uint32(n*2654435761) % 100),
		Liked: n%3 != 0,
	}
}

// TestBatchBeatsSingleRate is the batch protocol's reason to exist:
// moving the same rating volume as one 64-rating batch per request
// instead of one rating per request is at least 2x faster end to end.
// A timing comparison, so skipped with -short; the benchmarks below
// track the same ratio.
func TestBatchBeatsSingleRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; run without -short")
	}
	_, ts := newTestServer(t)
	c := New(ts.URL)
	defer c.Close()

	const batch, ratings, workers = 64, 64 * 48, 4
	// ratesPerSec sends `ratings` ratings, `per` to a request, from four
	// concurrent senders and returns the ratings moved per second.
	ratesPerSec := func(ratings, per int) float64 {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]hyrec.Rating, per)
				for i := w; i < ratings/per; i += workers {
					for j := range buf {
						buf[j] = rateStream(i*per + j)
					}
					var err error
					if per == 1 {
						err = c.Rate(tctx, buf[0].User, buf[0].Item, buf[0].Liked)
					} else {
						err = c.RateBatch(tctx, buf)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(ratings) / time.Since(start).Seconds()
	}

	ratesPerSec(32, 1) // warm the connection pool so neither path pays dials
	single := ratesPerSec(ratings, 1)
	batched := ratesPerSec(ratings, batch)
	t.Logf("single: %.0f ratings/s, batched(x%d): %.0f ratings/s (%.1fx)", single, batch, batched, batched/single)
	if batched < 2*single {
		t.Fatalf("batch path %.0f ratings/s < 2x single path %.0f ratings/s", batched, single)
	}
}

// BenchmarkClientRateSingle measures the per-request /v1/rate path: one
// rating per round trip.
func BenchmarkClientRateSingle(b *testing.B) {
	_, ts := newTestServer(b)
	c := New(ts.URL)
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rateStream(i)
		if err := c.Rate(tctx, r.User, r.Item, r.Liked); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ratings/s")
}

// BenchmarkClientRateBatch measures the amortized path: 64 ratings per
// round trip. Compare ratings/s against BenchmarkClientRateSingle.
func BenchmarkClientRateBatch(b *testing.B) {
	_, ts := newTestServer(b)
	c := New(ts.URL)
	defer c.Close()
	buf := make([]hyrec.Rating, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range buf {
			buf[j] = rateStream(i*len(buf) + j)
		}
		if err := c.RateBatch(tctx, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(buf))/b.Elapsed().Seconds(), "ratings/s")
}

// BenchmarkClientJob measures the personalization-job fetch through the
// typed client (gzip negotiation + decode).
func BenchmarkClientJob(b *testing.B) {
	eng, ts := newTestServer(b)
	for u := hyrec.UserID(1); u <= 64; u++ {
		eng.Rate(tctx, u, hyrec.ItemID(u%7), true)
	}
	c := New(ts.URL)
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Job(tctx, hyrec.UserID(i%64+1)); err != nil {
			b.Fatal(err)
		}
	}
}
