// Scene-change detection. The temporal policy's CutThreshold operates
// on β jumps, which conflates scene cuts with mere exposure drift; the
// detector here works directly on histogram statistics — the same
// signal the backlight controller already computes — so cuts can be
// identified before the policy decides how fast to move β.
package video

import (
	"context"
	"errors"

	"hebs/internal/histogram"
	"hebs/internal/invariant"
	"hebs/internal/obs"
)

// DefaultCutDistance is the earth-mover's distance (in grayscale
// levels, on normalized histograms) above which consecutive frames are
// treated as a scene cut. Typical exposure drift moves the histogram a
// few levels per frame; cuts move it tens of levels.
const DefaultCutDistance = 20.0

// DetectCuts returns the indices of frames that start a new scene: the
// histogram EMA of the running scene is compared against each new
// frame's histogram, and an earth-mover's distance above threshold
// marks a cut (the estimator then restarts on the new scene).
// threshold <= 0 selects DefaultCutDistance. Frame 0 never counts.
func DetectCuts(seq *Sequence, threshold float64) ([]int, error) {
	if seq == nil || len(seq.Frames) == 0 {
		return nil, errors.New("video: empty sequence")
	}
	if threshold <= 0 {
		threshold = DefaultCutDistance
	}
	sp := obs.StartSpan("video.DetectCuts")
	defer sp.End()
	sp.SetInt("frames", len(seq.Frames))
	// A fairly fast EMA keeps the reference current within a scene.
	est, err := histogram.NewEstimator(0.4)
	if err != nil {
		return nil, err
	}
	var cuts []int
	var h histogram.Histogram
	for i, f := range seq.Frames {
		histogram.OfInto(f, &h)
		if i == 0 {
			if err := est.Observe(&h); err != nil {
				return nil, err
			}
			continue
		}
		d, err := est.Distance(&h)
		if err != nil {
			return nil, err
		}
		if d > threshold {
			cuts = append(cuts, i)
			est.Reset() // restart the scene reference
		}
		if err := est.Observe(&h); err != nil {
			return nil, err
		}
	}
	sp.SetInt("cuts", len(cuts))
	mCutsFound.Add(int64(len(cuts)))
	if invariant.Enabled {
		// Frame 0 never counts as a cut and indices must be a strictly
		// increasing subset of the frame range.
		for i, c := range cuts {
			invariant.Assert(c >= 1 && c < len(seq.Frames),
				"video: cut index %d outside [1,%d)", c, len(seq.Frames))
			invariant.Assert(i == 0 || c > cuts[i-1],
				"video: cut indices not increasing: %v", cuts)
		}
	}
	return cuts, nil
}

// ProcessWithCutDetectionContext runs the clip with the slew-rate
// policy, but snaps β at the scene cuts DetectCuts finds instead of at
// β jumps (CutThreshold is turned off): histogram-level detection
// fires even when a cut lands on a similar β. cutDistance <= 0 selects
// DefaultCutDistance. The clip runs as one walk whose governor
// restarts at each cut; Result.Cuts records the cuts. A cancellation
// returns what ProcessContext returns: the aggregated contiguous
// prefix of frames that finished Apply (empty during the range
// searches) with ctx's error, still carrying the clip's cuts.
func ProcessWithCutDetectionContext(ctx context.Context, seq *Sequence, pol Policy, cutDistance float64) (*Result, error) {
	cuts, err := DetectCuts(seq, cutDistance)
	if err != nil {
		return nil, err
	}
	pol.CutThreshold = 0
	res, err := walk(ctx, seq, pol, cuts)
	if res != nil {
		res.Cuts = cuts
	}
	return res, err
}
