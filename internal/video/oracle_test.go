package video

import (
	"math"
	"testing"

	"hebs/internal/core"
	"hebs/internal/histogram"
	"hebs/internal/power"
	"hebs/internal/transform"
)

// serialOracle is the paper's per-frame loop, the reference every walk
// is checked against. For each frame in order it runs the full
// pipeline with the frame's own range search (or the previous frame's
// range when the histogram estimator calls the scene static), applies
// the fast-attack/slow-decay governor with cut snapping, re-runs the
// pipeline at RangeForBeta(applied) when the slew limit binds, and
// measures the power saving. It has no delta analysis, no pooled
// state and no spans.
func serialOracle(t *testing.T, seq *Sequence, pol Policy) *Result {
	t.Helper()
	sub := power.DefaultSubsystem
	if pol.Options.Subsystem != nil {
		sub = *pol.Options.Subsystem
	}
	var est *histogram.Estimator
	if pol.ReuseThreshold > 0 {
		var err error
		if est, err = histogram.NewEstimator(0.5); err != nil {
			t.Fatal(err)
		}
	}
	res := &Result{}
	prevBeta, prevRange := math.NaN(), 0
	for i, frame := range seq.Frames {
		opts := pol.Options
		opts.Trace = nil
		if est != nil {
			h := histogram.Of(frame)
			if est.Ready() {
				d, err := est.Distance(h)
				if err != nil {
					t.Fatal(err)
				}
				if d < pol.ReuseThreshold {
					opts.DynamicRange, opts.MaxDistortionPercent, opts.ExactSearch = prevRange, 0, false
				}
			}
			if err := est.Observe(h); err != nil {
				t.Fatal(err)
			}
		}
		r, err := core.Process(frame, opts)
		if err != nil {
			t.Fatalf("oracle frame %d: %v", i, err)
		}
		prevRange = r.Range
		target, applied := r.Beta, r.Beta
		if !math.IsNaN(prevBeta) && pol.MaxStep > 0 {
			delta := target - prevBeta
			isCut := pol.CutThreshold > 0 && math.Abs(delta) > pol.CutThreshold
			if delta < -pol.MaxStep && !isCut {
				applied = prevBeta - pol.MaxStep
			}
		}
		if applied != target { //hebslint:allow floateq applied is assigned from target unless slew-limited
			rng, err := power.RangeForBeta(applied, transform.Levels)
			if err != nil {
				t.Fatal(err)
			}
			opts := pol.Options
			opts.Trace = nil
			opts.DynamicRange, opts.MaxDistortionPercent, opts.ExactSearch = rng, 0, false
			if r, err = core.Process(frame, opts); err != nil {
				t.Fatalf("oracle frame %d (smoothed): %v", i, err)
			}
		}
		saving, err := sub.SavingPercent(frame, r.Transformed, r.Beta)
		if err != nil {
			t.Fatal(err)
		}
		res.Frames = append(res.Frames, FrameResult{
			TargetBeta:    target,
			Beta:          r.Beta,
			Range:         r.Range,
			SavingPercent: saving,
			Distortion:    r.AchievedDistortion,
		})
		prevBeta = r.Beta
	}
	res.aggregate()
	return res
}

// serialOracleCuts is the oracle for ProcessWithCutDetectionContext: the
// serial oracle run scene by scene, with the β-jump threshold off and
// the governor restarting at each detected cut.
func serialOracleCuts(t *testing.T, seq *Sequence, pol Policy, cutDistance float64) *Result {
	t.Helper()
	cuts, err := DetectCuts(seq, cutDistance)
	if err != nil {
		t.Fatal(err)
	}
	pol.CutThreshold = 0
	bounds := append(append([]int{0}, cuts...), len(seq.Frames))
	res := &Result{}
	for k := 0; k+1 < len(bounds); k++ {
		scene, err := NewSequence(seq.Frames[bounds[k]:bounds[k+1]])
		if err != nil {
			t.Fatal(err)
		}
		res.Frames = append(res.Frames, serialOracle(t, scene, pol).Frames...)
	}
	res.aggregate()
	res.Cuts = cuts
	return res
}
