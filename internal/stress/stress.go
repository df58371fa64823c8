// Package stress reproduces the client-machine instrumentation of
// Section 5.6: a duty-cycle CPU load generator (the paper uses the Linux
// `stress` tool and the antutu benchmark) and a progress monitor that
// counts similarity-computation loops per time window (Figure 11's
// y-axis). Both are real executions, not models; the widget's Device
// abstraction handles cross-device extrapolation separately.
package stress

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hyrec/internal/server"
)

// Load occupies approximately `fraction` of every CPU with busy-work until
// the returned stop function is called. The duty cycle alternates ~5 ms
// busy and proportional idle slices, the same strategy `stress --cpu`
// variants use.
func Load(fraction float64) (stop func()) {
	if fraction <= 0 {
		return func() {}
	}
	if fraction > 1 {
		fraction = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	const slice = 5 * time.Millisecond
	busy := time.Duration(float64(slice) * fraction)
	idle := slice - busy
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink := uint64(1)
			for ctx.Err() == nil {
				deadline := time.Now().Add(busy)
				for time.Now().Before(deadline) {
					sink = sink*6364136223846793005 + 1442695040888963407
				}
				if idle > 0 {
					timer := time.NewTimer(idle)
					select {
					case <-timer.C:
					case <-ctx.Done():
						timer.Stop()
					}
				}
			}
			atomic.AddUint64(&blackhole, sink)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// blackhole defeats dead-code elimination of the busy loops.
var blackhole uint64

// Monitor runs fn in a tight loop for the given window and returns how
// many iterations completed — the "number of loops" progress measure of
// Figure 11. fn should be a small unit of work (one similarity
// computation in the paper).
func Monitor(window time.Duration, fn func()) (iterations int64) {
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		fn()
		iterations++
	}
	return iterations
}

// ServiceThroughput drives any server.Service — an in-process engine, a
// cluster, or (the interesting case) a typed HTTP client pointed at a
// live server — with `workers` closed-loop goroutines for the given
// window, returning completed and failed calls. op receives the service,
// its worker index and worker-local iteration counter, so callers derive
// deterministic per-worker workloads without shared state. This is the
// harness that measures the actual network path the paper describes when
// svc is a hyrec/client.Client.
func ServiceThroughput(svc server.Service, workers int, window time.Duration,
	op func(ctx context.Context, svc server.Service, worker, i int) error) (calls, failures int64) {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	var total, failed atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n, f := int64(0), int64(0)
			for i := 0; time.Now().Before(deadline); i++ {
				if err := op(ctx, svc, w, i); err != nil {
					// A deadline hit while a call was in flight is the
					// window closing, not a workload failure.
					if ctx.Err() != nil {
						break
					}
					f++
				}
				n++
			}
			total.Add(n)
			failed.Add(f)
		}(w)
	}
	wg.Wait()
	return total.Load(), failed.Load()
}

// Throughput is the multi-worker analogue of Monitor: `workers`
// goroutines call fn in a closed loop for the given window and the total
// number of completed calls is returned. fn receives its worker index and
// the worker-local iteration counter so callers can derive per-worker
// deterministic workloads without shared state. It is the in-process
// harness behind the cluster scaling experiment (server-side Rate+Job
// throughput, 1 vs N partitions).
func Throughput(workers int, window time.Duration, fn func(worker, i int)) int64 {
	if workers < 1 {
		workers = 1
	}
	var total atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := int64(0)
			for i := 0; time.Now().Before(deadline); i++ {
				fn(w, i)
				n++
			}
			total.Add(n)
		}(w)
	}
	wg.Wait()
	return total.Load()
}
