package video

import (
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/chart"
	"hebs/internal/core"
	"hebs/internal/gray"
)

// patchClip is a talking-head-style clip: a static base with one
// animated patch, so most zones of a 4×4 grid are byte-identical
// frame to frame while a few keep changing.
func patchClip(t *testing.T, n int) *Sequence {
	t.Helper()
	b := base(t)
	frames := make([]*gray.Image, n)
	for i := range frames {
		f := gray.New(b.W, b.H)
		copy(f.Pix, b.Pix)
		x0, y0 := f.W/2, 2*f.H/3
		for y := y0; y < y0+f.H/10 && y < f.H; y++ {
			for x := x0; x < x0+f.W/6 && x < f.W; x++ {
				f.Pix[y*f.W+x] = uint8(96 + (x+y+7*i)%64)
			}
		}
		frames[i] = f
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestZonedClipFastPathEquivalence is the video-layer leg of the
// fast-path equivalence suite: whole clips through the per-zone
// governor — backends × workers {1,4} × delta on/off × global and
// zone-local motion — produce bit-identical FrameResults to an oracle
// run of the same clip with every memo out of play. The oracle turns
// delta analysis off and passes the default metric as a custom
// closure, which the engine's zoned state cannot fingerprint, so no
// zone skip, replay or frame-distortion memo survives across calls.
func TestZonedClipFastPathEquivalence(t *testing.T) {
	pan, err := Pan(base(t), 48, 48, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	clips := []struct {
		name string
		seq  *Sequence
	}{
		{"pan", pan},
		{"patch", patchClip(t, 8)},
	}
	backends := []backlight.Backend{backlight.DefaultCCFL(), ledBackend(t, 4, 4)}
	opts := core.Options{MaxDistortionPercent: 10, ExactSearch: true}
	oracleOpts := opts
	oracleOpts.Metric = func(a, b *gray.Image) (float64, error) { return chart.UQIMetric(a, b) }
	for _, clip := range clips {
		for _, b := range backends {
			for _, workers := range []int{1, 4} {
				ref, err := Process(clip.seq, Policy{
					MaxStep: 0.05, CutThreshold: 0.2, Options: oracleOpts,
					Workers: workers, Backend: b,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, delta := range []bool{false, true} {
					fast, err := Process(clip.seq, Policy{
						MaxStep: 0.05, CutThreshold: 0.2, Options: opts,
						Workers: workers, DeltaAnalysis: delta, Backend: b,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(fast.Frames) != len(ref.Frames) {
						t.Fatalf("%s/%s workers=%d delta=%v: frame counts differ",
							clip.name, b.Name(), workers, delta)
					}
					for i := range fast.Frames {
						if fast.Frames[i] != ref.Frames[i] {
							t.Errorf("%s/%s workers=%d delta=%v frame %d:\n fast %+v\n  ref %+v",
								clip.name, b.Name(), workers, delta, i, fast.Frames[i], ref.Frames[i])
						}
					}
				}
			}
		}
	}
}
