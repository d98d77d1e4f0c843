package video

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"hebs/internal/chart"
	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/sipi"
)

// TestProcessContextCancelMidClip cancels the context from inside the
// distortion metric after the second frame starts: ProcessContext must
// return the completed prefix together with context.Canceled, and the
// policy engine's buffer pools must drain back to zero.
func TestProcessContextCancelMidClip(t *testing.T) {
	img, err := sipi.Generate("lena", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*gray.Image, 6)
	for i := range frames {
		frames[i] = img
	}
	seq, err := NewSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	cancellingMetric := func(a, b *gray.Image) (float64, error) {
		if calls.Add(1) >= 2 {
			cancel()
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return chart.UQIMetric(a, b)
	}
	eng := core.NewEngine(core.EngineOptions{})
	pol := Policy{
		Engine:  eng,
		Options: core.Options{DynamicRange: 150, Metric: cancellingMetric},
	}
	res, err := ProcessContext(ctx, seq, pol)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled clip must still return the completed prefix")
	}
	if len(res.Frames) == 0 || len(res.Frames) >= len(seq.Frames) {
		t.Fatalf("completed prefix has %d frames, want in (0, %d)", len(res.Frames), len(seq.Frames))
	}
	if res.MeanSaving <= 0 {
		t.Fatalf("partial aggregation missing: mean saving %v", res.MeanSaving)
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak after cancelled clip: %d buffers in use", inUse)
	}
}

// TestProcessContextCancelInsideSearch cancels from inside the exact
// range search at one worker (Workers 0): the result is a contiguous
// prefix of the serial oracle's frames (possibly empty), the error is
// context.Canceled, and every pooled buffer is back.
func TestProcessContextCancelInsideSearch(t *testing.T) {
	seq, err := Pan(base(t), 48, 48, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{
		MaxStep: 0.02,
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true, Metric: chart.UQIMetric},
	}
	want := serialOracle(t, seq, pol)
	for _, cancelAt := range []int64{1, 12, 30} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		// The exact search probes the metric ~9 times per frame, so the
		// cancellation lands inside a search.
		pol.Options.Metric = func(a, b *gray.Image) (float64, error) {
			if calls.Add(1) == cancelAt {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return chart.UQIMetric(a, b)
		}
		eng := core.NewEngine(core.EngineOptions{})
		pol.Engine = eng
		res, err := ProcessContext(ctx, seq, pol)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at call %d: got %v, want context.Canceled", cancelAt, err)
		}
		if res == nil || len(res.Frames) >= len(want.Frames) {
			t.Fatalf("cancel at call %d: want a strict prefix, got %+v", cancelAt, res)
		}
		if k := len(res.Frames); k > 0 && !reflect.DeepEqual(res.Frames, want.Frames[:k]) {
			t.Fatalf("cancel at call %d: frames %+v are not a prefix of the oracle's %+v", cancelAt, res.Frames, want.Frames)
		}
		if inUse := eng.PoolStats().InUse(); inUse != 0 {
			t.Fatalf("cancel at call %d: pool leak, %d buffers in use", cancelAt, inUse)
		}
	}
}

// TestProcessContextCancelledUpfront: a context cancelled before the
// first frame yields an empty (but aggregatable) result.
func TestProcessContextCancelledUpfront(t *testing.T) {
	seq, err := NewSequence([]*gray.Image{gray.New(8, 8), gray.New(8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ProcessContext(ctx, seq, Policy{Options: core.Options{DynamicRange: 150}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil || len(res.Frames) != 0 {
		t.Fatalf("want empty result, got %+v", res)
	}
}

// TestProcessLegacyMatchesEngine: a run on a private engine and two
// runs through one shared engine (cold, then warm pools and plan
// cache) all equal the serial oracle.
func TestProcessLegacyMatchesEngine(t *testing.T) {
	a, err := sipi.Generate("splash", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sipi.Generate("sail", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Fade(a, b, 6)
	if err != nil {
		t.Fatal(err)
	}
	pol := Policy{
		MaxStep:        0.05,
		ReuseThreshold: 2,
		Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	want := serialOracle(t, seq, pol)
	r1, err := Process(seq, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, want) {
		t.Fatalf("private engine: %+v != oracle %+v", r1, want)
	}
	shared := pol
	shared.Engine = core.NewEngine(core.EngineOptions{})
	// Twice through the same engine: the second pass runs on warm
	// pools and a warm plan cache.
	for pass := 0; pass < 2; pass++ {
		r2, err := ProcessContext(context.Background(), seq, shared)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r2, want) {
			t.Fatalf("pass %d: %+v != oracle %+v", pass, r2, want)
		}
	}
	if inUse := shared.Engine.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak across clips: %d buffers in use", inUse)
	}
}
