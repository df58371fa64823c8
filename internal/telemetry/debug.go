// Package telemetry holds the process-level observability surfaces the
// server binaries share.
package telemetry

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServeDebug mounts net/http/pprof on its own listener at addr — never
// on the public API mux, so profiles are reachable only where an
// operator chose to expose them — and serves it in the background. It
// returns the server so the caller can Close it on shutdown. The debug
// server sets no write timeout: a CPU profile holds its response open
// for the requested number of seconds.
func ServeDebug(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("debug listener: %v", err)
		}
	}()
	return srv, nil
}
