package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func startTestServer(t *testing.T, opts ServerOptions) (*Server, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := NewServer("127.0.0.1:0", opts)
	if err := s.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// A keep-alive connection the client dialed but never sent a
		// request on counts as active to the server for 5s, which would
		// stall Shutdown past its deadline: drop the client's idle
		// connections first.
		http.DefaultClient.CloseIdleConnections()
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, cancel
}

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t.frames_total").Add(5)
	h := reg.Histogram("t.frame.seconds", LatencyBuckets())
	h.Observe(0.004)
	fl := NewFlightRecorder(8)
	fl.Record(FrameRecord{Frame: 0, Beta: 0.5, Workers: 1, Seconds: 0.004})

	s, _ := startTestServer(t, ServerOptions{Registry: reg, Flight: fl})
	base := s.URL()

	code, ct, body := get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz: %d %q", code, body)
	}

	code, ct, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if ct != PromContentType {
		t.Errorf("/metrics content type %q, want %q", ct, PromContentType)
	}
	for _, want := range []string{
		"# TYPE t_frames_total counter",
		"t_frames_total 5",
		`t_frame_seconds_bucket{le="+Inf"} 1`,
		"t_frame_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, ct, body = get(t, base+"/metrics.json")
	if code != http.StatusOK || !strings.Contains(ct, "application/json") {
		t.Fatalf("/metrics.json: %d %s", code, ct)
	}
	if !json.Valid([]byte(body)) || !strings.Contains(body, "t.frames_total") {
		t.Errorf("/metrics.json body:\n%s", body)
	}

	code, _, body = get(t, base+"/debug/frames")
	if code != http.StatusOK {
		t.Fatalf("/debug/frames: status %d", code)
	}
	var recs []FrameRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("/debug/frames does not parse: %v\n%s", err, body)
	}
	if len(recs) != 1 || recs[0].Workers != 1 {
		t.Errorf("/debug/frames = %+v", recs)
	}

	code, _, body = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline: %d %q", code, body)
	}
}

func TestServerNilFallbacks(t *testing.T) {
	prev := SetFlightRecorder(nil)
	defer SetFlightRecorder(prev)
	s, _ := startTestServer(t, ServerOptions{Registry: NewRegistry()})
	base := s.URL()

	code, _, body := get(t, base+"/debug/frames")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Errorf("/debug/frames without recorder: %d %q", code, body)
	}
}

// TestServerConcurrentScrape hammers every read endpoint while the
// instruments are being written — the race-detector proof that serving
// needs no coordination with a hot pipeline.
func TestServerConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t.frame.seconds", LatencyBuckets())
	fl := NewFlightRecorder(16)
	s, _ := startTestServer(t, ServerOptions{Registry: reg, Flight: fl})
	base := s.URL()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i%20) * 0.001)
				reg.Counter("t.frames_total").Inc()
				reg.Gauge("t.last_beta").Set(0.5)
				fl.Record(FrameRecord{Frame: i, Workers: w})
				if i%50 == 0 {
					fl.Snapshot()
				}
			}
		}(w)
	}
	paths := []string{"/metrics", "/metrics.json", "/debug/frames", "/healthz"}
	var scrapes sync.WaitGroup
	for _, p := range paths {
		scrapes.Add(1)
		go func(p string) {
			defer scrapes.Done()
			for i := 0; i < 20; i++ {
				code, _, _ := get(t, base+p)
				if code != http.StatusOK {
					t.Errorf("GET %s: status %d", p, code)
					return
				}
			}
		}(p)
	}
	scrapes.Wait()
	close(stop)
	wg.Wait()
	// The telemetry mux serves only the endpoints above; /debug/slo is
	// not one of them.
	if code, _, _ := get(t, base+"/debug/slo"); code != http.StatusNotFound {
		t.Errorf("GET /debug/slo: status %d, want %d", code, http.StatusNotFound)
	}
}

// TestServerContextCancel proves cancelling Start's context tears the
// server down without an explicit Shutdown call.
func TestServerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewServer("127.0.0.1:0", ServerOptions{Registry: NewRegistry()})
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before cancel: %d", code)
	}
	cancel()
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not exit after context cancel")
	}
	// Probe on a new connection: the keep-alive one from the request
	// above may still be draining, but the listener must be closed.
	http.DefaultClient.CloseIdleConnections()
	if _, err := http.Get(s.URL() + "/healthz"); err == nil {
		t.Error("server still answering after context cancel")
	}
	sctx, scancel := context.WithTimeout(context.Background(), time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Errorf("shutdown after cancel: %v", err)
	}
}

func TestServerAddr(t *testing.T) {
	s := NewServer("127.0.0.1:0", ServerOptions{Registry: NewRegistry()})
	if got := s.Addr(); got != "127.0.0.1:0" {
		t.Errorf("pre-start Addr = %q", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), time.Second)
		defer scancel()
		_ = s.Shutdown(sctx) //nolint — test teardown
	}()
	if addr := s.Addr(); strings.HasSuffix(addr, ":0") {
		t.Errorf("post-start Addr %q still has port 0", addr)
	}
	if !strings.HasPrefix(s.URL(), "http://127.0.0.1:") {
		t.Errorf("URL = %q", s.URL())
	}
	if fmt.Sprintf("http://%s", s.Addr()) != s.URL() {
		t.Errorf("URL %q does not match Addr %q", s.URL(), s.Addr())
	}
}
