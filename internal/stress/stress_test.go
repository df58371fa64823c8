package stress

import (
	"testing"
	"time"
)

func TestLoadZeroIsNoop(t *testing.T) {
	stop := Load(0)
	stop() // must not hang or panic
	stop = Load(-1)
	stop()
}

func TestLoadStops(t *testing.T) {
	stop := Load(0.5)
	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Load did not stop")
	}
}

func TestLoadClampsAboveOne(t *testing.T) {
	stop := Load(5)
	defer stop()
	// Just verify the monitor still makes progress under full load.
	n := Monitor(50*time.Millisecond, func() {})
	if n == 0 {
		t.Fatal("monitor starved completely")
	}
}

func TestMonitorCountsIterations(t *testing.T) {
	n := Monitor(50*time.Millisecond, func() { _ = 1 + 1 })
	if n <= 0 {
		t.Fatalf("iterations = %d", n)
	}
}

func TestMonitorRespectsWindow(t *testing.T) {
	start := time.Now()
	Monitor(30*time.Millisecond, func() {})
	elapsed := time.Since(start)
	if elapsed < 30*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Fatalf("window = %v", elapsed)
	}
}

// The Figure 11 premise: background load reduces monitored progress.
// Timing-sensitive, so tolerant thresholds and a skip under -short.
func TestLoadSlowsMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	work := func() {
		s := 0
		for i := 0; i < 100; i++ {
			s += i
		}
		_ = s
	}
	baseline := Monitor(150*time.Millisecond, work)
	stop := Load(0.9)
	loaded := Monitor(150*time.Millisecond, work)
	stop()
	if loaded >= baseline {
		t.Skipf("load had no measurable effect (baseline=%d loaded=%d); scheduler noise", baseline, loaded)
	}
}
