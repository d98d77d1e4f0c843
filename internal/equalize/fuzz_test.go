package equalize

import (
	"testing"

	"hebs/internal/histogram"
	"hebs/internal/transform"
)

// FuzzSolveRange feeds arbitrary histograms and target ranges to the
// GHE solver: whatever the bin shape, a solved Φ must be a
// monotone map into [0, r] (Eq. 5–7) and its quantized LUT must stay
// ordered. Under -tags hebscheck the internal invariant layer checks
// the same properties at the point of computation.
func FuzzSolveRange(f *testing.F) {
	f.Add([]byte{10, 0, 0, 250, 1}, uint8(200))
	f.Add([]byte{1}, uint8(0))
	f.Add([]byte{0, 0, 0, 7}, uint8(254))
	f.Fuzz(func(t *testing.T, binBytes []byte, r8 uint8) {
		var bins [histogram.Levels]int
		for i, b := range binBytes {
			bins[i%histogram.Levels] += int(b)
		}
		h, err := histogram.FromBins(bins)
		if err != nil {
			return // empty histogram: clean rejection
		}
		r := 1 + int(r8)%(transform.Levels-1)
		res, err := SolveRange(h, r)
		if err != nil {
			t.Fatalf("SolveRange(r=%d): %v", r, err)
		}
		for v := 0; v < transform.Levels; v++ {
			y := res.Exact[v]
			if !(y >= 0 && y <= float64(r)) {
				t.Fatalf("Φ(%d) = %v outside [0,%d]", v, y, r)
			}
			if v > 0 && y < res.Exact[v-1] {
				t.Fatalf("Φ not monotone at %d: %v < %v", v, y, res.Exact[v-1])
			}
			if v > 0 && res.LUT[v] < res.LUT[v-1] {
				t.Fatalf("LUT not monotone at %d", v)
			}
		}
	})
}
