// CLI diagnostics hooks shared by the four commands: pprof CPU/heap
// profiles, a JSON span dump, a metrics-registry snapshot and the live
// telemetry server (-telemetry), all behind standard flags so every
// tool gains the same observability surface.
package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// CLIFlags wires the observability flags into a FlagSet and manages
// their lifecycle around a command run.
type CLIFlags struct {
	cpuProfile *string
	memProfile *string
	traceOut   *string
	metricsOut *string

	telemetry     *string
	telemetryHold *time.Duration
	flightOut     *string
	flightSize    *int

	cpuFile    *os.File
	collector  *Collector
	prevSink   Sink
	server     *Server
	flight     *FlightRecorder
	prevFlight *FlightRecorder
	started    bool
}

// AddCLIFlags registers -cpuprofile, -memprofile, -trace-out,
// -metrics-out and the live-telemetry flags (-telemetry,
// -telemetry-hold, -flight-out, -flight-size) on fs and returns
// the handle to Start/Stop them around the run.
func AddCLIFlags(fs *flag.FlagSet) *CLIFlags {
	c := &CLIFlags{}
	c.cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	c.memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	c.traceOut = fs.String("trace-out", "", "write the pipeline span trace as JSON to this file")
	c.metricsOut = fs.String("metrics-out", "", "write the metrics registry snapshot as JSON to this file")
	c.telemetry = fs.String("telemetry", "", "serve live telemetry (/metrics, /debug/frames, pprof) on this address (e.g. :9090)")
	c.telemetryHold = fs.Duration("telemetry-hold", 0, "keep the telemetry server up this long after the run finishes (scrape window)")
	c.flightOut = fs.String("flight-out", "", "write the frame flight-recorder ring as JSON to this file on exit (enables recording)")
	c.flightSize = fs.Int("flight-size", DefaultFlightSize, "frame flight-recorder ring capacity")
	return c
}

// TracingRequested reports whether -trace-out was given.
func (c *CLIFlags) TracingRequested() bool { return *c.traceOut != "" }

// Collector returns the span collector, installing one as the global
// sink on first use — commands that render span timelines (hebsvideo)
// call this to force collection even without -trace-out.
func (c *CLIFlags) Collector() *Collector {
	if c.collector == nil {
		c.collector = NewCollector()
		c.prevSink = SetSink(c.collector)
	}
	return c.collector
}

// Start begins CPU profiling, installs the span collector and brings
// up the live-telemetry layer (flight recorder, HTTP server) when the
// corresponding flags were given. Call after flag parsing.
func (c *CLIFlags) Start() error {
	c.started = true
	if *c.traceOut != "" {
		c.Collector()
	}
	// The flight recorder turns on when anything consumes it: a dump
	// file or the /debug/frames endpoint. Otherwise the pipeline pays
	// only the nil check per frame.
	if *c.flightOut != "" || *c.telemetry != "" {
		c.flight = NewFlightRecorder(*c.flightSize)
		c.prevFlight = SetFlightRecorder(c.flight)
	}
	if *c.telemetry != "" {
		c.server = NewServer(*c.telemetry, ServerOptions{
			Registry: Default(),
			Flight:   c.flight,
		})
		if err := c.server.Start(context.Background()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving on %s\n", c.server.URL())
	}
	if *c.cpuProfile != "" {
		f, err := os.Create(*c.cpuProfile)
		if err != nil {
			return fmt.Errorf("obs: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the profiler error takes precedence
			return fmt.Errorf("obs: -cpuprofile: %w", err)
		}
		c.cpuFile = f
	}
	return nil
}

// Telemetry returns the running telemetry server, or nil when
// -telemetry was not given (valid between Start and Stop).
func (c *CLIFlags) Telemetry() *Server { return c.server }

// Flight returns the flight recorder installed by Start, or nil when
// recording is disabled.
func (c *CLIFlags) Flight() *FlightRecorder { return c.flight }

// Stop finishes profiling and writes the requested artifacts. It is
// safe to call on an un-Started handle (no-op) and restores the
// previous span sink.
func (c *CLIFlags) Stop() error {
	if !c.started {
		return nil
	}
	c.started = false
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(c.cpuFile.Close())
		c.cpuFile = nil
	}
	if c.collector != nil {
		if *c.traceOut != "" {
			keep(writeFile(*c.traceOut, c.collector.WriteJSON))
		}
		SetSink(c.prevSink)
		c.prevSink = nil
	}
	if c.server != nil {
		if hold := *c.telemetryHold; hold > 0 {
			// Scrape window: keep serving after the work finishes so an
			// external scraper (the CI smoke job, a human with curl) can
			// read the final state. An already-dead server ends the hold
			// early.
			select {
			case <-time.After(hold):
			case <-c.server.Done():
			}
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		keep(c.server.Shutdown(sctx))
		cancel()
		c.server = nil
	}
	if c.flight != nil {
		if *c.flightOut != "" {
			keep(writeFile(*c.flightOut, c.flight.WriteJSON))
		}
		SetFlightRecorder(c.prevFlight)
		c.flight = nil
		c.prevFlight = nil
	}
	if *c.metricsOut != "" {
		keep(writeFile(*c.metricsOut, Default().WriteJSON))
	}
	if *c.memProfile != "" {
		runtime.GC() // materialize up-to-date allocation statistics
		keep(writeFile(*c.memProfile, pprof.WriteHeapProfile))
	}
	return firstErr
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}
