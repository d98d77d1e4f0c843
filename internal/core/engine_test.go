package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"hebs/internal/chart"
	"hebs/internal/driver"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/rgb"
	"hebs/internal/sipi"
)

// TestEngineProcessMatchesLegacy: the pooled engine path must be
// byte-identical to the legacy wrapper across operating modes.
func TestEngineProcessMatchesLegacy(t *testing.T) {
	cfg := driver.DefaultConfig
	cases := []struct {
		name string
		opts Options
	}{
		{"direct_range", Options{DynamicRange: 150}},
		{"exact_search", Options{MaxDistortionPercent: 10, ExactSearch: true}},
		{"with_driver", Options{DynamicRange: 120, Driver: &cfg}},
		{"clipped", Options{DynamicRange: 140, Equalizer: EqualizerClipped}},
	}
	eng := NewEngine(EngineOptions{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := testImg(t, "lena")
			want, err := Process(img, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the second run exercises the plan cache and the
			// warmed buffer pools.
			for run := 0; run < 2; run++ {
				got, err := eng.Process(context.Background(), img, tc.opts)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if !got.Transformed.Equal(want.Transformed) {
					t.Fatalf("run %d: transformed image differs from legacy Process", run)
				}
				if *got.Lambda != *want.Lambda {
					t.Fatalf("run %d: Λ differs from legacy Process", run)
				}
				if got.Range != want.Range || got.Beta != want.Beta {
					t.Fatalf("run %d: operating point (%d, %v) != legacy (%d, %v)",
						run, got.Range, got.Beta, want.Range, want.Beta)
				}
				for _, q := range [][2]float64{
					{got.AchievedDistortion, want.AchievedDistortion},
					{got.PredictedDistortion, want.PredictedDistortion},
					{got.PowerBefore, want.PowerBefore},
					{got.PowerAfter, want.PowerAfter},
					{got.PowerSavingPercent, want.PowerSavingPercent},
					{got.PLCError, want.PLCError},
					{got.RealizationError, want.RealizationError},
				} {
					if math.Float64bits(q[0]) != math.Float64bits(q[1]) {
						t.Fatalf("run %d: metric %v != legacy %v", run, q[0], q[1])
					}
				}
				got.Release()
			}
		})
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak: %d buffers still in use after releases", inUse)
	}
}

func TestConflictingOptionsRejected(t *testing.T) {
	img := testImg(t, "lena")
	opts := Options{DynamicRange: 150, ExactSearch: true}
	var conflict *ConflictingOptionsError
	if _, err := Process(img, opts); !errors.As(err, &conflict) {
		t.Fatalf("Process: got %v, want ConflictingOptionsError", err)
	}
	if conflict.DynamicRange != 150 {
		t.Fatalf("conflict range = %d, want 150", conflict.DynamicRange)
	}
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	if _, err := eng.Analyze(ctx, img, opts); !errors.As(err, &conflict) {
		t.Fatalf("Analyze: got %v, want ConflictingOptionsError", err)
	}
	if _, err := eng.ProcessBatch(ctx, []*gray.Image{img}, opts); !errors.As(err, &conflict) {
		t.Fatalf("ProcessBatch: got %v, want ConflictingOptionsError", err)
	}
	if _, err := ProcessBatch([]*gray.Image{img}, opts); !errors.As(err, &conflict) {
		t.Fatalf("legacy ProcessBatch: got %v, want ConflictingOptionsError", err)
	}
}

// TestNonFiniteBudgetRejected: a NaN or infinite distortion budget
// fails every entry point with a typed error, in curve and exact mode
// alike, instead of returning an arbitrary end of the range.
func TestNonFiniteBudgetRejected(t *testing.T) {
	img := testImg(t, "lena")
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	for _, budget := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, exact := range []bool{false, true} {
			opts := Options{MaxDistortionPercent: budget, ExactSearch: exact}
			for name, run := range map[string]func() error{
				"Process": func() error {
					_, err := Process(img, opts)
					return err
				},
				"SelectRange": func() error {
					_, _, err := eng.SelectRange(ctx, img, opts)
					return err
				},
				"Analyze": func() error {
					_, err := eng.Analyze(ctx, img, opts)
					return err
				},
				"ProcessBatch": func() error {
					_, err := eng.ProcessBatch(ctx, []*gray.Image{img}, opts)
					return err
				},
			} {
				var nonFinite *NonFiniteBudgetError
				err := run()
				if !errors.As(err, &nonFinite) {
					t.Fatalf("%s budget=%v exact=%v: got %v, want NonFiniteBudgetError", name, budget, exact, err)
				}
				if math.Float64bits(nonFinite.MaxDistortionPercent) != math.Float64bits(budget) {
					t.Fatalf("%s: error carries budget %v, want %v", name, nonFinite.MaxDistortionPercent, budget)
				}
			}
		}
	}
}

// TestEngineStagesComposeLikeProcess: Analyze → PlanFor → Apply run
// individually must reproduce Process's transformed frame, and
// releasing every stage output must drain the pools.
func TestEngineStagesComposeLikeProcess(t *testing.T) {
	img := testImg(t, "baboon")
	opts := Options{DynamicRange: 150}
	want, err := Process(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	an, err := eng.Analyze(ctx, img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if an.Range != want.Range {
		t.Fatalf("Analyze range %d != Process range %d", an.Range, want.Range)
	}
	plan, err := eng.PlanFor(ctx, an.Histogram, an.Range, opts)
	if err != nil {
		t.Fatal(err)
	}
	if *plan.Lambda != *want.Lambda {
		t.Fatal("PlanFor Λ differs from Process")
	}
	out, err := eng.Apply(ctx, plan, img)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(want.Transformed) {
		t.Fatal("Apply output differs from Process transformed frame")
	}
	eng.ReleaseImage(out)
	an.Release()
	an.Release() // idempotent
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak: %d buffers still in use", inUse)
	}
}

// TestEnginePlanCacheSharesPlans: identical histograms at the same
// operating point must return the same cached *Plan, and a different
// operating point must miss.
func TestEnginePlanCacheSharesPlans(t *testing.T) {
	img := testImg(t, "lena")
	h := histogram.Of(img)
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	opts := Options{}
	p1, err := eng.PlanFor(ctx, h, 150, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.PlanFor(ctx, h, 150, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same histogram and range: plan not served from cache")
	}
	p3, err := eng.PlanFor(ctx, h, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("different range must not hit the cache")
	}
	// Cache disabled: always a fresh plan.
	nocache := NewEngine(EngineOptions{PlanCacheSize: -1})
	q1, err := nocache.PlanFor(ctx, h, 150, opts)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := nocache.PlanFor(ctx, h, 150, opts)
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Fatal("disabled cache returned a shared plan")
	}
	if *q1.Lambda != *p1.Lambda {
		t.Fatal("cached and uncached plans disagree on Λ")
	}
}

func TestEngineProcessCancelledContext(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	img := testImg(t, "lena")
	if _, err := eng.Process(ctx, img, Options{DynamicRange: 150}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak on cancelled run: %d buffers in use", inUse)
	}
}

// TestEngineBatchCancellationMidway cancels the context from inside
// the distortion metric after a few images: the batch must surface
// context.Canceled and release every pooled buffer it handed out.
func TestEngineBatchCancellationMidway(t *testing.T) {
	var imgs []*gray.Image
	for _, n := range []string{"lena", "baboon", "housea", "splash", "sail", "peppers"} {
		imgs = append(imgs, testImg(t, n))
	}
	eng := NewEngine(EngineOptions{PlanCacheSize: -1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	cancellingMetric := func(a, b *gray.Image) (float64, error) {
		if calls.Add(1) >= 2 {
			cancel()
		}
		// Surface the cancellation from inside the pipeline so the test
		// is deterministic regardless of worker scheduling.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return chart.UQIMetric(a, b)
	}
	opts := Options{DynamicRange: 150, Metric: cancellingMetric}
	res, err := eng.ProcessBatch(ctx, imgs, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled batch must not return results")
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak after cancelled batch: %d buffers in use", inUse)
	}
}

func TestResultReleaseIdempotent(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	res, err := eng.Process(context.Background(), testImg(t, "lena"), Options{DynamicRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	res.Release() // second release is a no-op
	var nilRes *Result
	nilRes.Release() // nil-safe
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("double release corrupted pool accounting: InUse %d", inUse)
	}
}

func TestEngineProcessColorRelease(t *testing.T) {
	img := rgb.FromGray(testImg(t, "peppers"))
	eng := NewEngine(EngineOptions{})
	res, err := eng.ProcessColor(context.Background(), img, Options{DynamicRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := ProcessColor(img, Options{DynamicRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TransformedColor.Equal(legacy.TransformedColor) {
		t.Fatal("engine color output differs from legacy ProcessColor")
	}
	res.Release()
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak after color release: %d buffers in use", inUse)
	}
}

func BenchmarkEngineApplyGray(b *testing.B) {
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	h := histogram.Of(img)
	plan, err := eng.PlanFor(ctx, h, 150, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := eng.Apply(ctx, plan, img)
		if err != nil {
			b.Fatal(err)
		}
		eng.ReleaseImage(out)
	}
}

func BenchmarkEngineApplyRGB(b *testing.B) {
	base, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	img := rgb.FromGray(base)
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	h := histogram.Of(base)
	plan, err := eng.PlanFor(ctx, h, 150, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := eng.ApplyColor(ctx, plan, img)
		if err != nil {
			b.Fatal(err)
		}
		eng.ReleaseColorImage(out)
	}
}
