package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"
)

// ServeUntilSignal is the serving loop of the server binaries. It runs
// s on addr, and its framed listener on frameAddr when set, until
// SIGINT/SIGTERM, then shuts down gracefully: stop accepting, release
// parked worker long-polls, drain in-flight requests (bounded by
// grace), stop the rotation goroutine via Close, and only then run
// final (when non-nil): the final snapshot, which no rotation can race.
func (s *HTTPServer) ServeUntilSignal(addr, frameAddr string, grace time.Duration, final func() error) error {
	if frameAddr != "" {
		ln, err := net.Listen("tcp", frameAddr)
		if err != nil {
			return fmt.Errorf("frame listener: %w", err)
		}
		// s.Close tears the listener (and its connections) down.
		go func() {
			if err := s.ServeFrames(ln); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("frame listener: %v", err)
			}
		}()
	}
	httpSrv := &http.Server{
		Addr:    addr,
		Handler: s.Handler(),
		// Bound slow or stuck clients so one bad peer cannot pin a
		// connection: headers must arrive promptly, whole requests and
		// responses are capped, and idle keep-alives are reaped.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case <-ctx.Done():
		// Release parked worker long-polls (and stop rotation) first:
		// http.Server.Shutdown does not cancel in-flight request
		// contexts, so a parked /v1/job?worker=1 would otherwise pin its
		// connection for the whole grace period.
		s.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.Close()
			if final != nil {
				if ferr := final(); ferr != nil {
					log.Printf("final snapshot: %v", ferr)
				}
			}
			return err
		}
	}
	s.Close()
	if final != nil {
		if err := final(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		fmt.Println("state saved")
	}
	return nil
}
