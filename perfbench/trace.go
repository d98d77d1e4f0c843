package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hebs/internal/backlight"
	"hebs/internal/chart"
	"hebs/internal/core"
	"hebs/internal/driver"
	"hebs/internal/equalize"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/lcd"
	"hebs/internal/plc"
	"hebs/internal/power"
	"hebs/internal/transform"
	"hebs/internal/video"
)

// The layers of the traced run, in pipeline order. Each is one span
// name and one family of per-layer metrics.
const (
	layerClip     = "video.clip"
	layerProcess  = "video.process"
	layerReplay   = "video.replay_energy"
	layerCuts     = "video.detect_cuts"
	layerFrame    = "walk.frame"
	layerDelta    = "histogram.delta"
	layerHist     = "histogram"
	layerRange    = "core.range_select"
	layerUQI      = "quality.uqi"
	layerZoned    = "core.zoned"
	layerSmooth   = "backlight.smooth"
	layerEqualize = "equalize"
	layerPLC      = "plc"
	layerDriver   = "driver"
	layerApply    = "transform.apply"
	layerDistort  = "quality.distortion"
	layerPower    = "power"
	layerLCD      = "lcd"
)

// allocPassClips is the number of clips of the allocation pass.
const allocPassClips = 4

// allocLayers are the layers that report allocs_per_call.
var allocLayers = []string{
	layerClip, layerReplay, layerCuts, layerDelta, layerHist, layerRange, layerUQI, layerZoned,
	layerSmooth, layerEqualize, layerPLC, layerDriver, layerApply, layerDistort, layerPower, layerLCD,
}

// span is one recorded call. Times are nanoseconds since the traced
// run began; Parent is the index of the enclosing span or -1; Frame is
// -1 on clip-level spans.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Clip   int    `json:"clip"`
	Frame  int    `json:"frame"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, clip, frame int) int {
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0).Nanoseconds(), Parent: parent, Clip: clip, Frame: frame})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].End = time.Since(r.t0).Nanoseconds() }

// allocCount accumulates one layer's allocations.
type allocCount struct{ mallocs, calls uint64 }

// walker calls each layer's public functions from the benchmark's own
// code, one child span per call under a walk.frame span. In the
// allocation pass it records no spans and instead reads the heap
// counters around each call.
type walker struct {
	b   *bench
	rec *recorder
	// allocs is non-nil in the allocation pass.
	allocs map[string]*allocCount
	ms     [2]runtime.MemStats

	eng      *core.Engine // walk engine: the workload's workers, plan cache off
	zoned    backlight.Backend
	delta    *histogram.FrameDelta
	hd, h    histogram.Histogram
	prev     *gray.Image // the previous frame walked, for zone change tests
	hasPrev  bool
	zoneImgs []*gray.Image
	scratch  []*gray.Image // reconstruction buffers, one per zone image
	full     *gray.Image   // full-frame reconstruction
	out      *gray.Image   // Λ(F)
	display  *lcd.Display
	betas    []float64
	recon    [transform.Levels]*transform.LUT

	// err is the first failed call's error; later calls are skipped.
	err error

	frames              int
	changedTiles, tiles int
	staticZones, zones  int
}

func newWalker(b *bench) (*walker, error) {
	w := &walker{
		b:     b,
		eng:   core.NewEngine(core.EngineOptions{Workers: b.w.workers, PlanCacheSize: -1}),
		zoned: b.led,
		prev:  gray.New(frameSize, frameSize),
		full:  gray.New(frameSize, frameSize),
		out:   gray.New(frameSize, frameSize),
	}
	if w.zoned == nil {
		// The global workloads time the zoned engine on the lamp as a
		// 1×1 grid at the frame's applied range.
		w.zoned = backlight.DefaultCCFL()
	}
	for k := 0; k < zoneGrid.Zones(); k++ {
		x0, y0, x1, y1 := zoneGrid.ZoneRect(k, frameSize, frameSize)
		w.zoneImgs = append(w.zoneImgs, gray.New(x1-x0, y1-y0))
		w.scratch = append(w.scratch, gray.New(x1-x0, y1-y0))
	}
	w.betas = make([]float64, w.zoned.Grid().Zones())
	var err error
	if w.delta, err = histogram.NewFrameDelta(frameSize, frameSize, 0); err != nil {
		return nil, err
	}
	cfg := lcd.DefaultConfig()
	cfg.Width, cfg.Height = frameSize, frameSize
	if w.display, err = lcd.New(cfg); err != nil {
		return nil, err
	}
	for r := range w.recon {
		if r < 2 {
			continue
		}
		lut, err := transform.ScaleToRange(0, uint8(r))
		if err != nil {
			return nil, err
		}
		if w.recon[r], err = lut.Reconstruction(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// call runs fn as one call into layer: a child span of parent in the
// traced pass, a heap-counter delta in the allocation pass. After a
// failed call it does nothing, and w.err holds the failure.
func (w *walker) call(layer string, parent, clip, frame int, fn func() error) {
	if w.err != nil {
		return
	}
	var err error
	if w.allocs != nil {
		runtime.ReadMemStats(&w.ms[0])
		err = fn()
		runtime.ReadMemStats(&w.ms[1])
		w.count(layer, w.ms[1].Mallocs-w.ms[0].Mallocs)
	} else {
		i := w.rec.begin(layer, parent, clip, frame)
		err = fn()
		w.rec.end(i)
	}
	if err != nil {
		w.err = fmt.Errorf("%s: %w", layer, err)
	}
}

// clip runs clip k through the program under a video.clip span and
// then walks it layer by layer. It returns the program's output.
func (w *walker) clip(ctx context.Context, k int) (clipOutput, error) {
	wl := w.b.w
	seq := w.b.fill(k)
	var out clipOutput
	var c int
	var before, after runtime.MemStats
	if w.allocs == nil {
		c = w.rec.begin(layerClip, -1, k, -1)
	} else {
		runtime.ReadMemStats(&before)
	}
	w.call(layerProcess, c, k, -1, func() (err error) {
		out.res, err = wl.process(ctx, w.b.pol, seq)
		return err
	})
	if wl.replay {
		w.call(layerReplay, c, k, -1, func() (err error) {
			out, err = replay(seq, out.res)
			return err
		})
	}
	if w.allocs == nil {
		w.rec.end(c)
	} else {
		runtime.ReadMemStats(&after)
		w.count(layerClip, after.Mallocs-before.Mallocs)
	}

	// Clip-level layers: cut detection on every workload; the energy
	// replay, for the workload whose clip call does not include it.
	w.call(layerCuts, -1, k, -1, func() error {
		_, err := video.DetectCuts(seq, video.DefaultCutDistance)
		return err
	})
	if !wl.replay {
		w.call(layerReplay, -1, k, -1, func() error {
			_, err := replay(seq, out.res)
			return err
		})
	}
	for i, f := range seq.Frames {
		if w.err != nil {
			break
		}
		w.frame(ctx, k, i, f, out.res.Frames[i])
	}
	return out, w.err
}

// count adds one call's allocations to the layer's total.
func (w *walker) count(layer string, mallocs uint64) {
	a := w.allocs[layer]
	if a == nil {
		a = &allocCount{}
		w.allocs[layer] = a
	}
	a.mallocs += mallocs
	a.calls++
}

// frame walks one frame through every layer in pipeline order at the
// frame's applied range.
func (w *walker) frame(ctx context.Context, k, i int, frame *gray.Image, fr video.FrameResult) {
	wl, pol := w.b.w, w.b.pol
	p := -1
	if w.allocs == nil {
		p = w.rec.begin(layerFrame, -1, k, i)
		defer w.rec.end(p)
	}
	w.frames++
	rng := fr.Range
	beta, err := power.BetaForRange(rng, transform.Levels)
	if err != nil {
		w.err = err
		return
	}

	w.call(layerDelta, p, k, i, func() error {
		changed, total, err := w.delta.Update(frame, &w.hd)
		w.changedTiles += changed
		w.tiles += total
		return err
	})
	w.call(layerHist, p, k, i, func() error { histogram.OfInto(frame, &w.h); return nil })

	// Range selection runs on the whole frame on the global walk, and on
	// each zone whose pixels changed since the previous frame on the
	// zoned walk (unchanged zones replay their range). Each selected
	// input is then scored once against its reconstruction at the
	// selected range: the cost of one UQI pass.
	inputs := []*gray.Image{frame}
	if wl.zoned {
		inputs = inputs[:0]
	}
	for z := 0; z < zoneGrid.Zones(); z++ {
		x0, y0, x1, y1 := zoneGrid.ZoneRect(z, frameSize, frameSize)
		w.zones++
		if w.hasPrev && sameRect(frame, w.prev, x0, y0, x1, y1) {
			w.staticZones++
		} else if wl.zoned {
			copyRect(w.zoneImgs[z], frame, x0, y0)
			inputs = append(inputs, w.zoneImgs[z])
		}
	}
	copy(w.prev.Pix, frame.Pix)
	w.hasPrev = true
	for j, img := range inputs {
		var r int
		w.call(layerRange, p, k, i, func() (err error) {
			r, _, err = w.eng.SelectRange(ctx, img, pol.Options)
			return err
		})
		if w.err != nil {
			return
		}
		rec := w.scratch[j]
		if img == frame {
			rec = w.full
		}
		if err := w.recon[r].ApplyInto(img, rec); err != nil {
			w.err = err
			return
		}
		w.call(layerUQI, p, k, i, func() error {
			_, err := chart.UQIMetric(img, rec)
			return err
		})
	}

	zopts := pol.Options
	if !wl.zoned {
		zopts.DynamicRange, zopts.MaxDistortionPercent, zopts.ExactSearch = rng, 0, false
	}
	w.call(layerZoned, p, k, i, func() error {
		zr, err := w.eng.ProcessZoned(ctx, frame, zopts, w.zoned)
		if err != nil {
			return err
		}
		for z := range zr.Zones {
			w.betas[z] = zr.Zones[z].TargetBeta
		}
		zr.Release()
		return nil
	})
	w.call(layerSmooth, p, k, i, func() error {
		_, err := backlight.Smooth(w.betas, w.zoned.Grid(), core.DefaultZoneMaxGradient)
		return err
	})

	var ghe *equalize.Result
	w.call(layerEqualize, p, k, i, func() (err error) {
		ghe, err = equalize.SolveRange(&w.h, rng)
		return err
	})
	var coarse *plc.Result
	var lambda *transform.LUT
	w.call(layerPLC, p, k, i, func() (err error) {
		if coarse, err = plc.Coarsen(ghe.Points(), driver.DefaultConfig.Sources); err != nil {
			return err
		}
		lambda, err = coarse.LUT()
		return err
	})
	var prog *driver.Program
	w.call(layerDriver, p, k, i, func() (err error) {
		prog, err = driver.ProgramHierarchical(driver.DefaultConfig, coarse.Points, beta)
		return err
	})
	w.call(layerApply, p, k, i, func() error { return lambda.ApplyIntoPacked(frame, w.out) })
	w.call(layerDistort, p, k, i, func() error {
		_, err := chart.TransformDistortion(frame, lambda, chart.UQIMetric)
		return err
	})
	w.call(layerPower, p, k, i, func() error {
		_, err := power.DefaultSubsystem.SavingPercent(frame, w.out, beta)
		return err
	})
	w.call(layerLCD, p, k, i, func() error {
		if err := w.display.LoadProgram(prog); err != nil {
			return err
		}
		_, err := w.display.ShowFrame(frame)
		return err
	})
}

// sameRect reports whether a and b hold the same pixels in the rectangle.
func sameRect(a, b *gray.Image, x0, y0, x1, y1 int) bool {
	for y := y0; y < y1; y++ {
		ra, rb := a.Pix[y*a.W+x0:y*a.W+x1], b.Pix[y*b.W+x0:y*b.W+x1]
		if string(ra) != string(rb) {
			return false
		}
	}
	return true
}

// copyRect copies the dst-sized rectangle of src at (x0, y0) into dst.
func copyRect(dst, src *gray.Image, x0, y0 int) {
	for y := 0; y < dst.H; y++ {
		copy(dst.Pix[y*dst.W:(y+1)*dst.W], src.Pix[(y0+y)*src.W+x0:])
	}
}

// trace is the traced run: the timed run's clips again, each through
// the program under a video.clip span and then walked layer by layer,
// followed by a separate allocation pass over allocPassClips clips
// that were never measured. It checks the traced outputs against the
// timed run's, writes the spans to outDir, prints the self-time table
// and returns the per-layer metrics.
func (b *bench) trace(ctx context.Context, tr *timedRun, outDir string, log io.Writer) (map[string]metric, error) {
	w, err := newWalker(b)
	if err != nil {
		return nil, err
	}
	w.rec = &recorder{t0: time.Now(), spans: make([]span, 0, len(tr.outs)*(4+b.w.frames*20))}
	untraced := 0.0
	for k := range tr.outs {
		if tr.failed[k] != nil {
			continue
		}
		out, err := w.clip(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("clip %d: %w", k, err)
		}
		if err := sameOutput(tr.outs[k], out); err != nil {
			tr.failed[k] = fmt.Errorf("traced run: %w", err)
		}
		untraced += tr.secs[k]
	}
	spans := w.rec.spans
	if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.seed)), spans); err != nil {
		return nil, err
	}
	stats := selfTimes(spans)
	printSelfTimes(log, stats)
	frames := float64(w.frames)
	perCall := func(l string) float64 { return float64(stats[l].total) / float64(stats[l].calls) }
	m := map[string]metric{
		"trace.overhead_ratio":               {float64(stats[layerClip].total) / 1e9 / untraced, "ratio"},
		"core.range_select.uqi_passes":       {perCall(layerRange) / perCall(layerUQI), "count"},
		"quality.uqi.ns_per_call":            {perCall(layerUQI), "ns"},
		"histogram.delta.changed_tile_ratio": {float64(w.changedTiles) / float64(w.tiles), "ratio"},
		"input.static_zone_ratio":            {float64(w.staticZones) / float64(w.zones), "ratio"},
	}
	for _, l := range []string{layerClip, layerFrame, layerRange, layerPLC, layerDistort, layerReplay, layerCuts,
		layerZoned, layerSmooth, layerDelta, layerHist, layerEqualize, layerDriver, layerApply, layerPower, layerLCD} {
		m[l+".ns_per_frame"] = metric{float64(stats[l].total) / frames, "ns"}
	}

	w.allocs = map[string]*allocCount{}
	w.rec = nil
	for k := -warmClips - 1; k >= -warmClips-allocPassClips; k-- {
		if _, err := w.clip(ctx, k); err != nil {
			return nil, fmt.Errorf("allocation pass clip %d: %w", k, err)
		}
	}
	for _, l := range allocLayers {
		a := w.allocs[l]
		m[l+".allocs_per_call"] = metric{float64(a.mallocs) / float64(a.calls), "count"}
	}
	return m, nil
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	calls       int
	total, self int64
	perClip     bool // the spans cover whole clips, not frames
}

// selfTimes sums, per span name, the calls, the total duration and the
// self time: each span's duration minus the time its children cover.
// Children of a span never overlap, so their durations add up.
func selfTimes(spans []span) map[string]spanStat {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanStat{}
	for i, s := range spans {
		st := out[s.Name]
		st.calls++
		st.total += s.End - s.Start
		st.self += s.End - s.Start - child[i]
		st.perClip = s.Frame < 0
		out[s.Name] = st
	}
	return out
}

// printSelfTimes prints the self times of the clip-level spans, then
// those of the frame-level walk spans with their share of all
// walk.frame time, largest first.
func printSelfTimes(log io.Writer, stats map[string]spanStat) {
	names := sortedKeys(stats)
	sort.SliceStable(names, func(i, j int) bool { return stats[names[i]].self > stats[names[j]].self })
	frame := float64(stats[layerFrame].total)
	for _, perClip := range []bool{true, false} {
		if perClip {
			fmt.Fprintln(log, "traced run, clip-level spans:")
		} else {
			fmt.Fprintf(log, "traced run, frame-level spans (share of %s total):\n", layerFrame)
		}
		for _, n := range names {
			if st := stats[n]; st.perClip == perClip {
				fmt.Fprintf(log, "  %-22s %8d calls %12.3f ms self %7.2f%%\n",
					n, st.calls, float64(st.self)/1e6, 100*float64(st.self)/frame)
			}
		}
	}
}

// writeSpans dumps the spans as a JSON array, one span per line.
func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, s := range spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.Write(line)
	}
	buf.WriteString("\n]\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
