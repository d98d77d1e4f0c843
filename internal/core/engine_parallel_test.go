package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"hebs/internal/chart"
	"hebs/internal/gray"
	"hebs/internal/rgb"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// TestEngineParallelProcessEqualsSerial: a workers>1 engine produces
// byte-identical output (frame, plan, measurements) to a serial one,
// across the suite and option shapes that exercise every parallel
// kernel — sharded histogram/apply via large frames, the exact search
// (whose probe remaps shard too), and the direct-range path.
func TestEngineParallelProcessEqualsSerial(t *testing.T) {
	ctx := context.Background()
	suite, err := sipi.Suite(256, 256)
	if err != nil {
		t.Fatal(err)
	}
	optsList := []Options{
		{MaxDistortionPercent: 10, ExactSearch: true},
		{MaxDistortionPercent: 3, ExactSearch: true},
		{DynamicRange: 180},
	}
	serial := NewEngine(EngineOptions{PlanCacheSize: -1})
	for _, workers := range []int{2, 3, 8} {
		par := NewEngine(EngineOptions{PlanCacheSize: -1, Workers: workers})
		for _, ni := range suite {
			for _, opts := range optsList {
				want, err := serial.Process(ctx, ni.Image, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := par.Process(ctx, ni.Image, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Transformed.Equal(want.Transformed) {
					t.Fatalf("%s workers=%d %+v: transformed frame differs", ni.Name, workers, opts)
				}
				if got.Range != want.Range || got.Beta != want.Beta || //hebslint:allow floateq
					got.PredictedDistortion != want.PredictedDistortion || //hebslint:allow floateq
					got.AchievedDistortion != want.AchievedDistortion { //hebslint:allow floateq
					t.Fatalf("%s workers=%d %+v: measurements differ: R %d/%d β %v/%v",
						ni.Name, workers, opts, got.Range, want.Range, got.Beta, want.Beta)
				}
				if !reflect.DeepEqual(got.Program, want.Program) {
					t.Fatalf("%s workers=%d %+v: driver program differs", ni.Name, workers, opts)
				}
				got.Release()
				want.Release()
			}
		}
		if inUse := par.PoolStats().InUse(); inUse != 0 {
			t.Fatalf("workers=%d: pool leak: %d buffers in use", workers, inUse)
		}
	}
}

// TestEngineParallelColorEqualsSerial: the sharded RGB apply path.
func TestEngineParallelColorEqualsSerial(t *testing.T) {
	ctx := context.Background()
	base, err := sipi.Generate("peppers", 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	img := rgb.FromGray(base)
	opts := Options{MaxDistortionPercent: 10, ExactSearch: true}
	serial := NewEngine(EngineOptions{PlanCacheSize: -1})
	par := NewEngine(EngineOptions{PlanCacheSize: -1, Workers: 4})
	want, err := serial.ProcessColor(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.ProcessColor(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.TransformedColor.Equal(want.TransformedColor) {
		t.Fatal("parallel color frame differs from serial")
	}
	got.Release()
	want.Release()
	if inUse := par.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak: %d buffers in use", inUse)
	}
}

// TestExactSearchMatchesChart pins the engine's exact range search
// against the plain chart.MinRangeExact oracle on frames either side of
// 128K pixels, at several worker counts and budgets from "nothing
// admissible" to "anything goes": the same R, a predicted distortion
// bit-identical to a fresh chart.RangeReductionDistortion at that R,
// and the same metric evaluations as the oracle's bisection plus one
// only when no probe met the budget (R = 255).
func TestExactSearchMatchesChart(t *testing.T) {
	ctx := context.Background()
	var calls atomic.Int64
	counting := func(a, b *gray.Image) (float64, error) {
		calls.Add(1)
		return chart.UQIMetric(a, b)
	}
	budgets := []float64{1e-9, 0.01, 0.5, 2, 5, 10, 20, 50, 99}
	for _, size := range []int{256, 384} {
		img, err := sipi.Generate("west", size, size)
		if err != nil {
			t.Fatal(err)
		}
		// Every level present, so even R = 254 distorts and the tiny
		// budget leaves nothing admissible below 255.
		for v := range transform.Levels {
			img.Pix[v] = uint8(v)
		}
		wantR := make([]int, len(budgets))
		wantD := make([]float64, len(budgets))
		wantCalls := make([]int64, len(budgets))
		for i, budget := range budgets {
			calls.Store(0)
			if wantR[i], err = chart.MinRangeExact(img, budget, counting); err != nil {
				t.Fatal(err)
			}
			wantCalls[i] = calls.Load()
			if wantR[i] == transform.Levels-1 {
				wantCalls[i]++
			}
			if wantD[i], err = chart.RangeReductionDistortion(img, wantR[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 4, 7} {
			eng := NewEngine(EngineOptions{Workers: workers})
			for i, budget := range budgets {
				calls.Store(0)
				r, predicted, err := eng.SelectRange(ctx, img, Options{MaxDistortionPercent: budget, ExactSearch: true, Metric: counting})
				if err != nil {
					t.Fatal(err)
				}
				if r != wantR[i] || predicted != wantD[i] { //hebslint:allow floateq
					t.Errorf("%d² workers=%d budget=%v: engine (R=%d d=%v), chart (R=%d d=%v)",
						size, workers, budget, r, predicted, wantR[i], wantD[i])
				}
				if got := calls.Load(); got != wantCalls[i] {
					t.Errorf("%d² workers=%d budget=%v: %d metric calls, want %d", size, workers, budget, got, wantCalls[i])
				}
			}
			if inUse := eng.PoolStats().InUse(); inUse != 0 {
				t.Fatalf("%d² workers=%d: search leaked %d scratch buffers", size, workers, inUse)
			}
		}
	}
}

// TestEngineSelectRange: the public step-1 entry point agrees with a
// full Process at the same options and rejects invalid inputs.
func TestEngineSelectRange(t *testing.T) {
	ctx := context.Background()
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	opts := Options{MaxDistortionPercent: 10, ExactSearch: true}
	r, predicted, err := eng.SelectRange(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Process(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if r != res.Range || predicted != res.PredictedDistortion { //hebslint:allow floateq
		t.Fatalf("SelectRange (R=%d d=%v) disagrees with Process (R=%d d=%v)",
			r, predicted, res.Range, res.PredictedDistortion)
	}
	if _, _, err := eng.SelectRange(ctx, nil, opts); err == nil {
		t.Fatal("nil image accepted")
	}
	if _, _, err := eng.SelectRange(ctx, img, Options{DynamicRange: 100, ExactSearch: true}); err == nil {
		t.Fatal("conflicting options accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := eng.SelectRange(cancelled, img, opts); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
