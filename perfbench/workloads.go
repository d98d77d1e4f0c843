package main

import (
	"context"
	"fmt"

	"hebs/internal/backlight"
	"hebs/internal/chart"
	"hebs/internal/core"
	"hebs/internal/driver"
	"hebs/internal/gray"
	"hebs/internal/lcd"
	"hebs/internal/rng"
	"hebs/internal/video"
)

// workload is one seeded clip stream. Every workload is a closed loop
// with a single stream: the next clip is submitted when the previous
// call returns, through one persistent engine, as a player would.
type workload struct {
	name string
	// frames is the clip length.
	frames int
	// workers is the policy's and the engine's worker count.
	workers int
	// families are the sipi scene families the clips are cut from.
	families []family
	// curve: the policy looks R up on the characteristic curve, so
	// set-up builds it.
	curve bool
	// cuts: clips run through ProcessWithCutDetectionContext.
	cuts bool
	// replay: each clip is followed by video.ReplayEnergy.
	replay bool
	// zoned: the policy drives a zoned backlight.
	zoned bool
	// fill generates one clip into dst from the clip's random source.
	fill func(s *scenes, r *rng.Source, dst []*gray.Image)
}

var workloads = []*workload{
	// Every frame is new, so delta analysis, the plan cache and zone
	// replay never fire and the exact range search carries the frame.
	{
		name:     "pan-exact",
		frames:   8,
		workers:  2,
		families: []family{landscape},
		replay:   true,
		fill:     (*scenes).fillPan,
	},
	// The curve lookup costs about a microsecond, so plc and the
	// distortion measurement carry the frame; fades move the histogram
	// every frame and the held stills of the cut take the fused delta
	// path.
	{
		name:     "mix-curve",
		frames:   24,
		workers:  1,
		families: []family{landscape, blobs},
		curve:    true,
		cuts:     true,
		replay:   true,
		fill:     (*scenes).fillMix,
	},
	// Most zones are byte-identical from frame to frame, so the zoned
	// walk, zone skip and replay, and smoothing dominate; the range
	// search runs only on the zones the patch touches.
	{
		name:     "talk-led",
		frames:   16,
		workers:  2,
		families: []family{portrait, texture},
		zoned:    true,
		fill:     (*scenes).fillTalk,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// zoneGrid is the LED array of the zoned workload, and the grid the
// traced run counts static zones on for every workload.
var zoneGrid = backlight.Grid{Rows: 4, Cols: 4}

// slewStep is every policy's per-frame dimming limit, and cutJump the
// β jump the global and zoned walks treat as a scene cut.
const (
	slewStep = 0.05
	cutJump  = 0.15
)

// policy builds the workload's video.Policy around eng. It is the only
// place a policy is built: the timed run, the traced run and the output
// check all differ only in the engine and the worker count.
func (w *workload) policy(eng *core.Engine, workers int, curve *chart.Curve, led backlight.Backend) video.Policy {
	pol := video.Policy{
		MaxStep:       slewStep,
		CutThreshold:  cutJump,
		DeltaAnalysis: true,
		Backend:       backlight.DefaultCCFL(),
		Engine:        eng,
		Workers:       workers,
	}
	switch w.name {
	case "pan-exact":
		pol.Options = core.Options{MaxDistortionPercent: 5, ExactSearch: true, Driver: &driver.DefaultConfig}
	case "mix-curve":
		pol.Options = core.Options{MaxDistortionPercent: 20, Curve: curve}
	case "talk-led":
		pol.Backend = led
		pol.Options = core.Options{MaxDistortionPercent: 10, ExactSearch: true}
	}
	return pol
}

// clipOutput is what one clip produced: the processed result and, on
// workloads that replay energy, the dimmed and full-backlight totals.
type clipOutput struct {
	res          *video.Result
	dimmed, full float64
}

// runClip is one closed-loop call: the clip through the workload's
// entry point, then the energy replay where the workload has one.
func (w *workload) runClip(ctx context.Context, pol video.Policy, seq *video.Sequence) (clipOutput, error) {
	res, err := w.process(ctx, pol, seq)
	if err != nil || !w.replay {
		return clipOutput{res: res}, err
	}
	return replay(seq, res)
}

// process runs the clip through the workload's video entry point.
func (w *workload) process(ctx context.Context, pol video.Policy, seq *video.Sequence) (*video.Result, error) {
	if w.cuts {
		return video.ProcessWithCutDetectionContext(ctx, seq, pol, video.DefaultCutDistance)
	}
	return video.ProcessContext(ctx, seq, pol)
}

// replay plays a processed clip through the LCD simulator.
func replay(seq *video.Sequence, res *video.Result) (clipOutput, error) {
	out := clipOutput{res: res}
	var err error
	out.dimmed, out.full, err = video.ReplayEnergy(seq, res, lcd.DefaultConfig())
	return out, err
}
