// Package video extends HEBS from single images to frame sequences,
// the direction the paper's conclusion points to for future work.
// Per-frame backlight scaling is free power, but a backlight factor
// that jumps between consecutive frames is visible as flicker; the
// temporal policy here rate-limits β between frames (slew-rate
// hysteresis) and the package provides a flicker metric plus synthetic
// sequence generators (pans, fades, scene cuts) to exercise it.
package video

import (
	"context"
	"errors"
	"fmt"
	"image"
	"math"

	"hebs/internal/backlight"
	"hebs/internal/core"
	"hebs/internal/gray"
)

// Sequence is an ordered list of equally-sized frames.
type Sequence struct {
	Frames []*gray.Image
}

// NewSequence validates frame sizes and wraps them.
func NewSequence(frames []*gray.Image) (*Sequence, error) {
	if len(frames) == 0 {
		return nil, errors.New("video: empty sequence")
	}
	for i, f := range frames {
		if f == nil {
			return nil, fmt.Errorf("video: nil frame %d", i)
		}
	}
	w, h := frames[0].W, frames[0].H
	for i, f := range frames {
		if f.W != w || f.H != h {
			return nil, fmt.Errorf("video: frame %d is %dx%d, want %dx%d", i, f.W, f.H, w, h)
		}
	}
	return &Sequence{Frames: frames}, nil
}

// Pan generates a sequence by sliding a viewport across a larger base
// image, dx pixels per frame (wrapping around).
func Pan(base *gray.Image, viewW, viewH, frames, dx int) (*Sequence, error) {
	if base == nil {
		return nil, errors.New("video: nil base image")
	}
	if viewW <= 0 || viewH <= 0 || viewW > base.W || viewH > base.H {
		return nil, fmt.Errorf("video: viewport %dx%d does not fit base %dx%d",
			viewW, viewH, base.W, base.H)
	}
	if frames <= 0 {
		return nil, fmt.Errorf("video: need positive frame count, got %d", frames)
	}
	out := make([]*gray.Image, frames)
	for i := range out {
		x0 := (i * dx) % (base.W - viewW + 1)
		if x0 < 0 {
			x0 += base.W - viewW + 1
		}
		sub, err := base.SubImage(image.Rect(x0, 0, x0+viewW, viewH))
		if err != nil {
			return nil, err
		}
		out[i] = sub
	}
	return NewSequence(out)
}

// Fade generates a linear cross-fade from a to b over the given number
// of frames (inclusive of both endpoints).
func Fade(a, b *gray.Image, frames int) (*Sequence, error) {
	if a == nil || b == nil {
		return nil, errors.New("video: nil endpoint image")
	}
	if a.W != b.W || a.H != b.H {
		return nil, errors.New("video: endpoint sizes differ")
	}
	if frames < 2 {
		return nil, fmt.Errorf("video: fade needs >= 2 frames, got %d", frames)
	}
	out := make([]*gray.Image, frames)
	for i := range out {
		t := float64(i) / float64(frames-1)
		f := gray.New(a.W, a.H)
		for p := range f.Pix {
			v := (1-t)*float64(a.Pix[p]) + t*float64(b.Pix[p])
			f.Pix[p] = uint8(math.Round(v))
		}
		out[i] = f
	}
	return NewSequence(out)
}

// Cut concatenates two sequences (a scene cut).
func Cut(a, b *Sequence) (*Sequence, error) {
	if a == nil || b == nil {
		return nil, errors.New("video: nil sequence")
	}
	return NewSequence(append(append([]*gray.Image{}, a.Frames...), b.Frames...))
}

// Policy configures temporal backlight control.
type Policy struct {
	// MaxStep is the largest allowed |Δβ| between consecutive frames
	// (slew-rate limit). 0 disables smoothing. A cut larger than
	// CutThreshold bypasses the limit (scene changes mask flicker).
	MaxStep float64
	// CutThreshold: when the target β changes by more than this, the
	// policy treats it as a scene cut and snaps immediately. 0 disables
	// snapping.
	CutThreshold float64
	// ReuseThreshold enables the static-scene optimization: when the
	// earth-mover's distance between the running histogram estimate and
	// the new frame's histogram is below this many levels, the previous
	// frame's admissible range is reused instead of re-running the
	// per-frame range search (the expensive step). 0 disables reuse.
	ReuseThreshold float64
	// DeltaAnalysis enables tiled incremental histogram analysis: each
	// frame is diffed against the previous one via per-tile checksums,
	// only changed tiles are re-binned (subtract-stale/add-fresh keeps
	// the global histogram exactly equal to a from-scratch scan), and a
	// frame whose pixels did not change at all is fused when its applied
	// range matches: it copies an identical frame's β, distortion and
	// saving and makes no engine call. Outputs are byte-identical to a
	// run with DeltaAnalysis off; see DESIGN.md "Incremental delta
	// analysis".
	DeltaAnalysis bool
	// TileSize is the delta-analysis tile edge in pixels (0 selects
	// histogram.DefaultTileSize). Ignored unless DeltaAnalysis is set.
	TileSize int
	// Backend selects the backlight architecture. nil and the global
	// CCFL backend walk the classic per-frame pipeline (the CCFL
	// backend resolves Options.Subsystem from its lamp model, keeping
	// outputs byte-identical to the nil default); a zoned backend (LED
	// array) or a non-subsystem power model (OLED) routes the clip
	// through the per-zone walk, where MaxStep/CutThreshold govern each
	// zone's β track and DeltaAnalysis replays certified-identical
	// frames. ReuseThreshold (the histogram-estimator reuse) applies
	// only to the classic walk.
	Backend backlight.Backend
	// HEBS options applied per frame. DynamicRange/budget semantics as
	// in core.Options.
	Options core.Options
	// Engine, when non-nil, runs the per-frame pipeline through the
	// given engine so its frame-buffer pools and plan cache persist
	// across clips — the steady-state zero-allocation path. Nil means
	// a private engine per Process call (pooling still amortizes
	// across the clip's frames).
	Engine *core.Engine
	// Workers bounds the goroutines of the frame walk's parallel
	// phases — the per-frame statistics and range searches, and
	// Apply/measure — around the order-dependent β-slew/cut governor,
	// which always runs as a cheap serial pass. 0 or 1 (the default)
	// runs every phase inline on the calling goroutine, n > 1 uses up
	// to n goroutines, and a negative value selects GOMAXPROCS. The
	// walk is the same at every setting, and so are its outputs —
	// frames, β sequences, driver programs; see DESIGN.md "Parallel
	// execution".
	Workers int
}

// FrameResult records one processed frame.
type FrameResult struct {
	// TargetBeta is the per-frame HEBS optimum.
	TargetBeta float64
	// Beta is the applied (smoothed) backlight factor.
	Beta float64
	// Range is the dynamic range corresponding to Beta.
	Range int
	// SavingPercent is the subsystem power saving for this frame.
	SavingPercent float64
	// Distortion is the achieved distortion at the applied range.
	Distortion float64
	// Zones is the backlight zone count that produced this frame (0 on
	// the classic global walk). On the zoned walk TargetBeta and Beta
	// are the zone means and Range is the largest zone range.
	Zones int
	// ZoneBetaSpread is max−min of the applied per-zone β field.
	ZoneBetaSpread float64
}

// Result is a processed sequence.
type Result struct {
	Frames []FrameResult
	// MeanSaving is the average per-frame power saving.
	MeanSaving float64
	// Flicker metrics over the applied β track.
	MeanAbsDeltaBeta float64
	MaxAbsDeltaBeta  float64
	// Cuts lists the frames at which ProcessWithCutDetectionContext
	// found a scene cut in the whole clip, in ascending order (nil
	// without cut detection or when the clip has none).
	Cuts []int
}

// Process runs per-frame HEBS with the temporal policy. The per-frame
// target β comes from the frame's own HEBS solution; the applied β is
// a fast-attack / slow-decay track: increases (brightening) are applied
// immediately because a β below the frame's target would violate its
// distortion budget, while decreases (dimming) are slew-rate limited by
// MaxStep — a gradual dim is far less visible than a gradual brighten
// is harmful. A target drop larger than CutThreshold is treated as a
// scene cut and snaps immediately (the cut masks the flicker).
func Process(seq *Sequence, pol Policy) (*Result, error) {
	return ProcessContext(context.Background(), seq, pol)
}

// ProcessContext is Process with cooperative cancellation. Every
// global-lamp clip runs the one phased walk (pipeline.go) at every
// Workers setting: range searches, then the serial β governor, then
// Apply and the measurements. The context is checked before each
// frame of each phase and inside the engine stages. A cancellation
// mid-clip returns the contiguous prefix of frames that finished
// Apply — empty when it strikes during the searches — already
// aggregated, together with ctx's error, so a partial timeline can
// still be reported. Pipeline frame buffers are drawn from (and
// returned to) the policy's engine, so a steady-state clip allocates
// almost nothing per frame.
func ProcessContext(ctx context.Context, seq *Sequence, pol Policy) (*Result, error) {
	return walk(ctx, seq, pol, nil)
}

// walk validates the clip and the policy and routes the clip to the
// global or the zoned walk. cuts lists, in ascending order, the frames
// that start a detected scene (nil: none); at each one the walk's
// governor restarts as it does at frame 0.
func walk(ctx context.Context, seq *Sequence, pol Policy, cuts []int) (*Result, error) {
	if seq == nil || len(seq.Frames) == 0 {
		return nil, errors.New("video: empty sequence")
	}
	if err := validatePolicy(pol); err != nil {
		return nil, err
	}
	if pol.Backend != nil {
		if c, ok := pol.Backend.(*backlight.CCFL); ok {
			// The global lamp walks the classic pipeline: resolve the
			// power subsystem from the backend and fall through, so the
			// outputs stay byte-identical to a run without a backend.
			if pol.Options.Subsystem == nil {
				sub := c.Subsystem()
				pol.Options.Subsystem = &sub
			}
		} else {
			return processZonedClip(ctx, seq, pol, cuts)
		}
	}
	return processClip(ctx, seq, pol, cuts)
}

// PolicyError reports a temporal-policy parameter ProcessContext
// cannot serve: a negative, NaN or infinite threshold, or a negative
// tile size. A NaN threshold would otherwise compare false everywhere
// and silently disable its feature.
type PolicyError struct {
	// Field names the rejected Policy field.
	Field string
	// Value is its value.
	Value float64
}

func (e *PolicyError) Error() string {
	return fmt.Sprintf("video: policy %s = %v, want a finite number >= 0", e.Field, e.Value)
}

// validatePolicy rejects the parameters PolicyError describes.
func validatePolicy(pol Policy) error {
	for _, p := range [...]struct {
		field string
		v     float64
	}{
		{"MaxStep", pol.MaxStep},
		{"CutThreshold", pol.CutThreshold},
		{"ReuseThreshold", pol.ReuseThreshold},
		{"TileSize", float64(pol.TileSize)},
	} {
		if !(p.v >= 0) || math.IsInf(p.v, 1) {
			return &PolicyError{Field: p.field, Value: p.v}
		}
	}
	return nil
}

// aggregate computes the clip-level summary — mean saving and the
// flicker statistics of the applied β track — over the completed
// frames in index order and publishes the clip gauges. The global and
// the zoned walk both reduce through this one helper.
func (r *Result) aggregate() {
	var sumSave, sumDelta, maxDelta float64
	for i, f := range r.Frames {
		sumSave += f.SavingPercent
		if i > 0 {
			d := math.Abs(f.Beta - r.Frames[i-1].Beta)
			sumDelta += d
			if d > maxDelta {
				maxDelta = d
			}
		}
	}
	if len(r.Frames) > 0 {
		r.MeanSaving = sumSave / float64(len(r.Frames))
	}
	if len(r.Frames) > 1 {
		r.MeanAbsDeltaBeta = sumDelta / float64(len(r.Frames)-1)
	}
	r.MaxAbsDeltaBeta = maxDelta
	gMeanSaving.Set(r.MeanSaving)
	gMeanAbsDelta.Set(r.MeanAbsDeltaBeta)
	gMaxAbsDelta.Set(r.MaxAbsDeltaBeta)
}
