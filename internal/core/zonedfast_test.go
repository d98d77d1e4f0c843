package core

import (
	"context"
	"reflect"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/gray"
	"hebs/internal/sipi"
)

// zonedSnapshot is everything observable about a ZonedResult, with the
// pooled Transformed pixels copied out and the run-history-dependent
// PlanCached flags normalized away.
type zonedSnapshot struct {
	pix    []byte
	zones  []ZoneResult
	frames struct {
		achieved, before, after, saving        float64
		betaMin, betaMax, betaMean, betaSpread float64
		sweeps                                 int
	}
}

func snapshotZoned(zr *ZonedResult) zonedSnapshot {
	var s zonedSnapshot
	s.pix = append([]byte(nil), zr.Transformed.Pix...)
	s.zones = append([]ZoneResult(nil), zr.Zones...)
	for k := range s.zones {
		s.zones[k].PlanCached = false
	}
	s.frames.achieved = zr.AchievedDistortion
	s.frames.before = zr.PowerBefore
	s.frames.after = zr.PowerAfter
	s.frames.saving = zr.PowerSavingPercent
	s.frames.betaMin = zr.BetaMin
	s.frames.betaMax = zr.BetaMax
	s.frames.betaMean = zr.BetaMean
	s.frames.betaSpread = zr.BetaSpread
	s.frames.sweeps = zr.SmoothSweeps
	return s
}

// zonedWalkFrames builds a short clip with zone-local change: frame 0
// is the fixture, middle frames mutate a moving patch (some zones
// rebin, the rest skip), and the final frames repeat so the all-replay
// path runs.
func zonedWalkFrames(t *testing.T, fx string, n int) []*gray.Image {
	t.Helper()
	base, err := sipi.Generate(fx, 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*gray.Image, n)
	for i := range frames {
		f := gray.New(base.W, base.H)
		copy(f.Pix, base.Pix)
		if i > 0 && i < n-2 {
			x0, y0 := 12+(i*17)%48, 8+(i*11)%48
			for y := y0; y < y0+12 && y < f.H; y++ {
				for x := x0; x < x0+20 && x < f.W; x++ {
					f.Pix[y*f.W+x] = uint8(40 + (x+3*y+29*i)%180)
				}
			}
		} else if i == n-1 {
			copy(f.Pix, frames[i-1].Pix)
		}
		frames[i] = f
	}
	return frames
}

// zonedProcess is one zoned walk: Engine.ProcessZoned or the reference
// oracle Engine.processZonedOracle.
type zonedProcess func(context.Context, *gray.Image, Options, backlight.Backend) (*ZonedResult, error)

// zonedWalk runs the frames through one walk like the video governor
// does — per-zone dimming floors derived from the previous frame's
// applied field — and snapshots every result.
func zonedWalk(t *testing.T, process zonedProcess, frames []*gray.Image, opts Options, b backlight.Backend) []zonedSnapshot {
	t.Helper()
	zones := b.Grid().Zones()
	var prev []float64
	snaps := make([]zonedSnapshot, 0, len(frames))
	for i, f := range frames {
		o := opts
		if prev != nil {
			floors := make([]float64, zones)
			for k := range floors {
				v := prev[k] - 0.04
				if v < 0 {
					v = 0
				}
				floors[k] = v
			}
			o.ZoneBetaFloor = floors
		}
		zr, err := process(context.Background(), f, o, b)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		prev = make([]float64, zones)
		for k := range zr.Zones {
			prev[k] = zr.Zones[k].Beta
		}
		snaps = append(snaps, snapshotZoned(zr))
		zr.Release()
	}
	return snaps
}

// TestZonedFastPathEquivalence pins the pooled fast walk bit-for-bit
// against the from-scratch reference walk: fixtures × backends (ccfl,
// led:4x4, oled) × workers {1,4}, over a clip that exercises unchanged
// zones, changed zones, floor-shifted operating points and full-frame
// replays.
func TestZonedFastPathEquivalence(t *testing.T) {
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	oled, err := backlight.NewOLED(0.3, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	backends := []backlight.Backend{backlight.DefaultCCFL(), led, oled}
	opts := Options{MaxDistortionPercent: 10, ExactSearch: true}
	for _, workers := range []int{1, 4} {
		for _, b := range backends {
			for _, fx := range []string{"lena", "baboon"} {
				frames := zonedWalkFrames(t, fx, 7)
				fast := zonedWalk(t, NewEngine(EngineOptions{Workers: workers}).ProcessZoned, frames, opts, b)
				ref := zonedWalk(t, NewEngine(EngineOptions{Workers: workers}).processZonedOracle, frames, opts, b)

				for i := range frames {
					if !reflect.DeepEqual(fast[i], ref[i]) {
						t.Errorf("%s/%s workers=%d frame %d: fast walk diverged from reference\n fast: %+v\n  ref: %+v",
							b.Name(), fx, workers, i, fast[i].frames, ref[i].frames)
					}
				}
			}
		}
	}
}

// TestZonedFastPathKeyInvalidation: changing the operating point
// between calls must invalidate every memo — same pixels, different
// budget, different answers, still matching the reference walk.
func TestZonedFastPathKeyInvalidation(t *testing.T) {
	led, err := backlight.NewLED(backlight.LEDOptions{Rows: 4, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	img, err := sipi.Generate("splash", 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []float64{10, 4, 10, 25}
	eng := NewEngine(EngineOptions{Workers: 1})
	ref := NewEngine(EngineOptions{Workers: 1})
	for i, budget := range budgets {
		opts := Options{MaxDistortionPercent: budget, ExactSearch: true}
		zr, err := eng.ProcessZoned(context.Background(), img, opts, led)
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		got := snapshotZoned(zr)
		zr.Release()

		zrRef, err := ref.processZonedOracle(context.Background(), img, opts, led)
		if err != nil {
			t.Fatalf("budget %v (ref): %v", budget, err)
		}
		want := snapshotZoned(zrRef)
		zrRef.Release()

		if !reflect.DeepEqual(got, want) {
			t.Errorf("call %d (budget %v): fast walk diverged after option change", i, budget)
		}
	}
}
