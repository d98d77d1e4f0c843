// Command perfbench is the HEBS benchmark. It runs one seeded workload
// of video clips through the public video and core entry points, checks
// every output, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics of a traced run) as one JSON line:
//
//	bash perfbench/run.sh --workload pan-exact --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"hebs/internal/backlight"
	"hebs/internal/chart"
	"hebs/internal/core"
	"hebs/internal/video"
)

const (
	// setupRuns is how often a run sets up; setup_s is the median.
	setupRuns = 5
	// warmClips is the number of warm-up clips per set-up.
	warmClips = 2
	// minClips is the fewest clips a timed run measures: enough for
	// minTail clips beyond the 90th percentile. The output digest and
	// the output metrics cover exactly these clips, so they do not
	// depend on machine speed.
	minClips = 100
	// checkers is the number of reference engines of the output check.
	checkers = 2
	// maxTimedWall stops a timed phase that cannot reach its clip
	// count, so a run stays inside its time limit.
	maxTimedWall = 100 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "pan-exact", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed; clip content is a pure function of seed and clip index")
	seconds := fs.Float64("seconds", 15, "seconds of clip time to measure (at least the clips p90 needs)")
	traced := fs.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the span dump of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	res, err := benchmark(context.Background(), w, *seed, *seconds, *traced == 1, *out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench is one set-up workload: its scenes, its persistent engine and
// policy, and the frame buffers clips are generated into.
type bench struct {
	w      *workload
	seed   uint64
	scenes *scenes
	curve  *chart.Curve
	led    backlight.Backend
	pol    video.Policy
	seq    *video.Sequence
}

// setup generates the scenes, builds the characteristic curve when the
// policy uses it, creates the workload's engine and runs warm-up clips
// through it. Warm-up clips have negative indices, which no measured
// clip has.
func setup(ctx context.Context, w *workload, seed uint64) (*bench, error) {
	b := &bench{w: w, seed: seed, seq: &video.Sequence{Frames: newFrames(w.frames)}}
	var err error
	if b.scenes, err = newScenes(w.families...); err != nil {
		return nil, err
	}
	if w.curve {
		if b.curve, err = chart.BuildDefault(); err != nil {
			return nil, fmt.Errorf("characteristic curve: %w", err)
		}
	}
	if w.zoned {
		if b.led, err = backlight.NewLED(backlight.LEDOptions{Rows: zoneGrid.Rows, Cols: zoneGrid.Cols}); err != nil {
			return nil, err
		}
	}
	b.pol = w.policy(core.NewEngine(core.EngineOptions{Workers: w.workers}), w.workers, b.curve, b.led)
	for k := -1; k >= -warmClips; k-- {
		if _, err := w.runClip(ctx, b.pol, b.fill(k)); err != nil {
			return nil, fmt.Errorf("warm-up clip %d: %w", k, err)
		}
	}
	return b, nil
}

// fill generates clip k into the bench's frame buffers.
func (b *bench) fill(k int) *video.Sequence {
	b.w.fill(b.scenes, clipSource(b.seed, k), b.seq.Frames)
	return b.seq
}

// timedRun is the untraced closed loop's record.
type timedRun struct {
	outs    []clipOutput
	secs    []float64 // per-clip latency
	failed  []error   // per clip: nil, or why the clip failed
	frames  int
	mallocs uint64
	bytes   uint64
	rssMB   float64
}

// timed runs clips 0, 1, … back to back until at least `seconds` of
// clip time and minClips clips are measured. Clip generation happens
// between calls and is not timed; memory statistics are read at the
// boundaries of each timed call only.
func (b *bench) timed(ctx context.Context, seconds float64) (*timedRun, error) {
	tr := &timedRun{}
	var m0, m1 runtime.MemStats
	total := 0.0
	start := time.Now()
	for k := 0; total < seconds || k < minClips; k++ {
		if time.Since(start) > maxTimedWall {
			break
		}
		seq := b.fill(k)
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := b.w.runClip(ctx, b.pol, seq)
		d := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		tr.mallocs += m1.Mallocs - m0.Mallocs
		tr.bytes += m1.TotalAlloc - m0.TotalAlloc
		total += d
		tr.secs = append(tr.secs, d)
		tr.frames += len(seq.Frames)
		if err == nil {
			err = invariants(b.w, out)
		}
		tr.outs = append(tr.outs, out)
		tr.failed = append(tr.failed, err)
	}
	var err error
	if tr.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if len(tr.outs) < minClips {
		return nil, fmt.Errorf("timed run measured %d clips in %v, want at least %d", len(tr.outs), maxTimedWall, minClips)
	}
	return tr, nil
}

// check reruns every measured clip on fresh serial engines with the
// plan cache off and compares each output bit for bit with the timed
// run's. checkers reference engines split the clips between them, each
// walking its share in clip order. The check runs after all timing, so
// it never warms a cache the timed run could use.
func (b *bench) check(ctx context.Context, tr *timedRun) {
	var wg sync.WaitGroup
	for c := 0; c < checkers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			eng := core.NewEngine(core.EngineOptions{Workers: 1, PlanCacheSize: -1})
			pol := b.w.policy(eng, 1, b.curve, b.led)
			seq := &video.Sequence{Frames: newFrames(b.w.frames)}
			for k := c; k < len(tr.outs); k += checkers {
				if tr.failed[k] != nil {
					continue
				}
				b.w.fill(b.scenes, clipSource(b.seed, k), seq.Frames)
				ref, err := b.w.runClip(ctx, pol, seq)
				if err == nil {
					err = invariants(b.w, ref)
				}
				if err == nil {
					err = sameOutput(tr.outs[k], ref)
				}
				if err != nil {
					tr.failed[k] = fmt.Errorf("output check: %w", err)
				}
			}
		}(c)
	}
	wg.Wait()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// benchmark sets up, measures, optionally traces, checks and reports.
func benchmark(ctx context.Context, w *workload, seed uint64, seconds float64, traced bool, outDir string, log io.Writer) (*result, error) {
	var b *bench
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		nb, err := setup(ctx, w, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
		runtime.GC() // one set-up's garbage is not the next one's
	}
	tr, err := b.timed(ctx, seconds)
	if err != nil {
		return nil, err
	}
	var layers map[string]metric
	if traced {
		if layers, err = b.trace(ctx, tr, outDir, log); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	b.check(ctx, tr)

	res, e2e := report(w, seed, tr, median(setups), log)
	if traced {
		res.Metrics = layers
	} else {
		res.Metrics = e2e
	}
	return res, nil
}

// report counts the failed clips, prints all ten end-to-end metrics and
// the output digest, and returns the result line with the end-to-end
// metrics of the JSON line. flicker_dbeta and fail_ratio are printed
// but left out of the JSON line, whose metrics must never be 0: the
// curve walks a constant range (no flicker at all), and a correct run
// fails no clip. The JSON line carries the failures as attempted and
// failed instead.
func report(w *workload, seed uint64, tr *timedRun, setupS float64, log io.Writer) (*result, map[string]metric) {
	res := &result{Attempted: len(tr.outs)}
	d := newDigest()
	// Output metrics cover the digest clips, so they depend on the seed
	// and the program only, not on how many clips the machine ran.
	var saving, flicker, frames, transitions float64
	for k, out := range tr.outs {
		if err := tr.failed[k]; err != nil {
			res.Failed++
			if res.Failed <= 3 {
				fmt.Fprintf(log, "clip %d failed: %v\n", k, err)
			}
			continue
		}
		if k >= minClips {
			continue
		}
		d.add(out)
		n := float64(len(out.res.Frames))
		saving += out.res.MeanSaving * n
		frames += n
		flicker += out.res.MeanAbsDeltaBeta * (n - 1)
		transitions += n - 1
	}
	res.Correct = res.Failed == 0
	total := 0.0
	for _, s := range tr.secs {
		total += s
	}
	// The timed loop always runs minClips clips, so both percentiles
	// have minTail samples beyond them.
	p50, _ := percentile(tr.secs, 0.5)
	p90, _ := percentile(tr.secs, 0.9)
	timedFrames := float64(tr.frames)
	e2e := map[string]metric{
		"frames_per_s":     {timedFrames / total, "1/s"},
		"clip_ms_p50":      {1000 * p50, "ms"},
		"clip_ms_p90":      {1000 * p90, "ms"},
		"allocs_per_frame": {float64(tr.mallocs) / timedFrames, "count"},
		"bytes_per_frame":  {float64(tr.bytes) / timedFrames, "B"},
		"peak_rss_mb":      {tr.rssMB, "MiB"},
		"setup_s":          {setupS, "s"},
		"saving_pct":       {saving / frames, "%"},
	}
	fmt.Fprintf(log, "workload %s, seed %d: %d clips of %d frames in %.2f s of clip time; clip latency percentiles over %d samples\n",
		w.name, seed, len(tr.outs), w.frames, total, len(tr.secs))
	for _, k := range sortedKeys(e2e) {
		fmt.Fprintf(log, "  %-18s %14.6g %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	fmt.Fprintf(log, "  %-18s %14.6g %s\n", "flicker_dbeta", flicker/transitions, "beta")
	fmt.Fprintf(log, "  %-18s %14.6g %s\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	fmt.Fprintf(log, "output digest of clips 0-%d: sha256 %s\n", minClips-1, d.sum())
	return res, e2e
}

// sortedKeys returns the map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
