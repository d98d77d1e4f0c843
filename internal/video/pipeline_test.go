package video

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/sipi"
)

// pipelineFixtures builds the motion shapes the governor reacts to:
// a pan (smooth drift), a fade into darkness (sustained dimming that
// trips the slew limiter), a hard cut (snap), a static scene (range
// reuse), and a mixed clip chaining all of them.
func pipelineFixtures(t *testing.T) map[string]*Sequence {
	t.Helper()
	pan, err := Pan(base(t), 48, 48, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	bright, err := sipi.Generate("sail", 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	dark := gray.New(48, 48)
	for i := range dark.Pix {
		dark.Pix[i] = uint8(i % 40)
	}
	fade, err := Fade(bright, dark, 8)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := Cut(pan, fade)
	if err != nil {
		t.Fatal(err)
	}
	static := make([]*gray.Image, 6)
	for i := range static {
		static[i] = pan.Frames[0]
	}
	staticSeq, err := NewSequence(static)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Cut(staticSeq, cut)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Sequence{
		"pan": pan, "fade": fade, "cut": cut, "static": staticSeq, "mixed": mixed,
	}
}

// oraclePolicies are the policy shapes the oracle-backed suites run:
// slew limiting, slew with cut snapping and range reuse, a direct
// range, and no smoothing at all.
func oraclePolicies() map[string]Policy {
	return map[string]Policy{
		"slew": {
			MaxStep: 0.01,
			Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
		},
		"slew+cut+reuse": {
			MaxStep:        0.01,
			CutThreshold:   0.15,
			ReuseThreshold: 4,
			Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
		},
		"direct-range": {
			MaxStep: 0.02,
			Options: core.Options{DynamicRange: 150},
		},
		"no-smoothing": {
			Options: core.Options{MaxDistortionPercent: 20, ExactSearch: true},
		},
	}
}

// TestPipelinedMatchesSerial: the frame walk's Result — every
// per-frame β, range, distortion, saving, and the clip aggregates —
// is bit-identical to the serial oracle, across motion shapes, policy
// combinations and worker counts.
func TestPipelinedMatchesSerial(t *testing.T) {
	for seqName, seq := range pipelineFixtures(t) {
		for polName, pol := range oraclePolicies() {
			want := serialOracle(t, seq, pol)
			for _, workers := range []int{0, 1, 2, 3, 4, 8, -1} {
				ppol := pol
				ppol.Workers = workers
				got, err := Process(seq, ppol)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", seqName, polName, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s workers=%d: result differs from the serial oracle:\n got %+v\nwant %+v",
						seqName, polName, workers, got, want)
				}
			}
		}
	}
}

// TestPipelinedSharedEngineMatchesSerial: running several worker
// counts through one shared engine (warm pools, plan cache,
// reconstruction cache) preserves the equality with the serial oracle
// and leaks no pooled buffers.
func TestPipelinedSharedEngineMatchesSerial(t *testing.T) {
	seq, err := Pan(base(t), 48, 48, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.EngineOptions{})
	pol := steadyPolicy()
	want := serialOracle(t, seq, pol)
	pol.Engine = eng
	for _, workers := range []int{0, 4, 1} {
		pol.Workers = workers
		got, err := Process(seq, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: shared-engine result differs:\n got %+v\nwant %+v", workers, got, want)
		}
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak: %d buffers in use after both modes", inUse)
	}
}

// TestPipelinedCutDetectionMatchesSerial: the cut-detected walk at
// every Workers setting matches the serial oracle run scene by scene,
// and publishes clip gauges that cover the whole clip rather than its
// last scene.
func TestPipelinedCutDetectionMatchesSerial(t *testing.T) {
	fixtures := pipelineFixtures(t)
	seq := fixtures["mixed"]
	pol := Policy{
		MaxStep:        0.01,
		ReuseThreshold: 4,
		Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	want := serialOracleCuts(t, seq, pol, 8)
	for _, workers := range []int{0, 1, 4} {
		pol.Workers = workers
		got, err := ProcessWithCutDetectionContext(context.Background(), seq, pol, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: cut-detection result differs:\n got %+v\nwant %+v", workers, got, want)
		}
		if gMeanSaving.Value() != got.MeanSaving || //hebslint:allow floateq the gauge is set from the same float
			gMeanAbsDelta.Value() != got.MeanAbsDeltaBeta || //hebslint:allow floateq the gauge is set from the same float
			gMaxAbsDelta.Value() != got.MaxAbsDeltaBeta { //hebslint:allow floateq the gauge is set from the same float
			t.Fatalf("workers=%d: clip gauges (%v, %v, %v) do not match the whole-clip aggregates %+v",
				workers, gMeanSaving.Value(), gMeanAbsDelta.Value(), gMaxAbsDelta.Value(), got)
		}
	}
}

// TestPipelinedCancellation: cancelling mid-clip surfaces ctx's error
// with an aggregated (possibly empty) contiguous prefix, and releases
// every pooled buffer.
func TestPipelinedCancellation(t *testing.T) {
	seq, err := Pan(base(t), 48, 48, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.EngineOptions{})
	pol := Policy{
		MaxStep: 0.02,
		Workers: 4,
		Engine:  eng,
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	// Metric hook fires inside the engine's distortion measurements —
	// cancel once a few frames are in flight.
	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pol.Options.Metric = func(a, b *gray.Image) (float64, error) {
		if calls.Add(1) == 10 {
			cancel()
		}
		return 0.5, nil
	}
	res, err := ProcessContext(ctx, seq, pol)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result")
	}
	if len(res.Frames) >= len(seq.Frames) {
		t.Fatalf("cancelled run completed all %d frames", len(res.Frames))
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak after cancellation: %d buffers in use", inUse)
	}
	// Pre-cancelled: empty prefix, same error.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	res, err = ProcessContext(done, seq, pol)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: got %v", err)
	}
	if res != nil && len(res.Frames) != 0 {
		t.Fatalf("pre-cancelled run reported %d frames", len(res.Frames))
	}
}

// TestPolicyWorkersResolution pins the Workers convention: 0 and 1
// are one worker, n > 1 bounded by the clip, negative all CPUs.
func TestPolicyWorkersResolution(t *testing.T) {
	if w := policyWorkers(0, 16); w != 1 {
		t.Errorf("policyWorkers(0) = %d, want 1", w)
	}
	if w := policyWorkers(1, 16); w != 1 {
		t.Errorf("policyWorkers(1) = %d, want 1", w)
	}
	if w := policyWorkers(8, 16); w != 8 {
		t.Errorf("policyWorkers(8) = %d, want 8", w)
	}
	if w := policyWorkers(8, 3); w != 3 {
		t.Errorf("policyWorkers(8, 3 frames) = %d, want 3", w)
	}
	if w := policyWorkers(-1, 16); w < 1 {
		t.Errorf("policyWorkers(-1) = %d", w)
	}
}
