// The telemetry server: a stdlib-HTTP surface over the registry and
// the flight recorder, mounted behind the -telemetry flag so a running
// pipeline can be watched live instead of post-mortem. Endpoints:
//
//	/metrics        Prometheus text exposition (v0.0.4)
//	/metrics.json   the -metrics-out JSON snapshot
//	/healthz        liveness ("ok")
//	/debug/frames   the flight recorder ring (JSON, oldest first)
//	/debug/pprof/*  the standard net/http/pprof handlers
//
// The server owns no instrument state: every handler renders a
// point-in-time view of the shared registry/recorder, so
// serving concurrently with a hot pipeline needs no coordination
// beyond the instruments' own atomics.
package obs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServerOptions configures a telemetry Server.
type ServerOptions struct {
	// Registry backs /metrics and /metrics.json; nil selects Default().
	Registry *Registry
	// Flight backs /debug/frames; nil falls back to the process-wide
	// recorder (Flight()), which may itself be disabled — the endpoint
	// then serves an empty array.
	Flight *FlightRecorder
}

// Server serves the telemetry endpoints on one listener. Create with
// NewServer, bring up with Start, and stop with Shutdown (or cancel
// Start's context for the same graceful teardown).
type Server struct {
	opts ServerOptions
	addr string
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
	// serveErr records a non-Shutdown Serve failure (the listener died
	// underneath us); Shutdown reports it after the loop exits.
	serveErr error
}

// NewServer returns an unstarted server for addr (":0" binds an
// ephemeral port, reported by Addr after Start).
func NewServer(addr string, opts ServerOptions) *Server {
	if opts.Registry == nil {
		opts.Registry = Default()
	}
	s := &Server{opts: opts, addr: addr, done: make(chan struct{})}
	s.srv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s
}

// Handler returns the telemetry mux — exported so tests (and embedders
// that already own a listener) can serve it directly.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/frames", s.handleFrames)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start binds the listener and serves in a background goroutine. When
// ctx is cancelled the server shuts down gracefully (in-flight
// requests get up to 5s to drain); pass context.Background() to manage
// teardown solely via Shutdown.
func (s *Server) Start(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("obs: telemetry listen %s: %w", s.addr, err)
	}
	s.ln = ln
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr = err
		}
	}()
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = s.srv.Shutdown(sctx) //hebslint:allow errdrop best-effort teardown on context cancel
			case <-s.done:
			}
		}()
	}
	return nil
}

// Addr returns the bound listen address ("host:port"), valid after
// Start — the way to discover the ephemeral port behind ":0".
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.addr
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL, valid after Start.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Done is closed when the serve loop has exited.
func (s *Server) Done() <-chan struct{} { return s.done }

// Shutdown gracefully stops the server: the listener closes
// immediately, in-flight requests drain until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.ln == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	<-s.done
	if err != nil {
		return err
	}
	return s.serveErr
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	if err := s.opts.Registry.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is abort the stream.
		return
	}
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.opts.Registry.WriteJSON(w); err != nil {
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleFrames(w http.ResponseWriter, req *http.Request) {
	f := s.opts.Flight
	if f == nil {
		f = Flight()
	}
	w.Header().Set("Content-Type", "application/json")
	if f == nil {
		fmt.Fprintln(w, "[]")
		return
	}
	if err := f.WriteJSON(w); err != nil {
		return
	}
}
