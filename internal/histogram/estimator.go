// Temporal histogram estimation. Backlight-scaling policies for video
// need image statistics per frame (Section 2 notes that "an image
// histogram estimator is required for calculating the statistics of
// the input image"); recomputing the transform from each frame's raw
// histogram makes β twitchy. The Estimator smooths histograms across
// frames with an exponential moving average, giving the policy a
// stable input that still tracks scene changes.
package histogram

import (
	"errors"
	"fmt"
	"math"
)

// Estimator maintains an exponentially-weighted moving histogram over
// a frame stream: w ← (1−α)·w + α·h for each observed frame histogram
// h (normalized to unit mass). Larger α tracks faster.
type Estimator struct {
	alpha   float64
	weights [Levels]float64
	seen    bool
}

// NewEstimator creates an estimator with smoothing factor 0 < alpha <= 1.
// alpha = 1 reproduces the latest frame exactly.
func NewEstimator(alpha float64) (*Estimator, error) {
	if math.IsNaN(alpha) || alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("histogram: smoothing factor %v outside (0,1]", alpha)
	}
	return &Estimator{alpha: alpha}, nil
}

// Observe folds one frame histogram into the moving average.
func (e *Estimator) Observe(h *Histogram) error {
	if h == nil || h.N == 0 {
		return errors.New("histogram: observe empty histogram")
	}
	n := float64(h.N)
	if !e.seen {
		for v := range e.weights {
			e.weights[v] = float64(h.Bins[v]) / n
		}
		e.seen = true
		return nil
	}
	a := e.alpha
	for v := range e.weights {
		e.weights[v] = (1-a)*e.weights[v] + a*float64(h.Bins[v])/n
	}
	return nil
}

// Reset forgets every observed frame: the next Observe starts the
// average afresh, as on a new estimator (a scene cut restarts the
// reference this way without allocating).
func (e *Estimator) Reset() { e.seen = false }

// Ready reports whether at least one frame has been observed.
func (e *Estimator) Ready() bool { return e.seen }

// Clone returns an independent snapshot of the estimator's state.
// Concurrent schedulers use snapshots to evaluate Distance against a
// fixed reference from several workers while the original keeps
// folding new frames — an Estimator itself is not safe for concurrent
// mutation.
func (e *Estimator) Clone() *Estimator {
	c := *e
	return &c
}

// Histogram renders the current estimate as an integer histogram with
// total mass (approximately) n, suitable for the GHE solver.
func (e *Estimator) Histogram(n int) (*Histogram, error) {
	if !e.seen {
		return nil, errors.New("histogram: estimator has observed no frames")
	}
	if n < 1 {
		return nil, fmt.Errorf("histogram: target mass %d < 1", n)
	}
	var bins [Levels]int
	total := 0
	largest := 0
	for v, w := range e.weights {
		c := int(math.Round(w * float64(n)))
		bins[v] = c
		total += c
		if bins[v] > bins[largest] {
			largest = v
		}
	}
	if total == 0 {
		// All mass rounded away (tiny n): put everything on the heaviest
		// level so the result stays a valid histogram.
		bins[largest] = n
	}
	return FromBins(bins)
}

// Distance returns the earth-mover's distance (in level units) between
// the current estimate and a frame histogram — the scene-change signal
// used by cut detection.
func (e *Estimator) Distance(h *Histogram) (float64, error) {
	if !e.seen {
		return 0, errors.New("histogram: estimator has observed no frames")
	}
	if h == nil || h.N == 0 {
		return 0, errors.New("histogram: empty comparison histogram")
	}
	// EMD over normalized masses: accumulate signed carry.
	carry := 0.0
	total := 0.0
	n := float64(h.N)
	for v := 0; v < Levels; v++ {
		carry += e.weights[v] - float64(h.Bins[v])/n
		total += math.Abs(carry)
	}
	return total, nil
}
