package core

import (
	"context"
	"errors"
	"math"
	"testing"

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
	ctx := context.Background()
	if _, _, err := NewEngine(EngineOptions{}).SelectRange(ctx, img, opts); !errors.As(err, &conflict) {
		t.Fatalf("SelectRange: got %v, want ConflictingOptionsError", err)
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

// TestEnginePlanCacheSharesPlans: identical histograms at the same
// operating point must return the same cached *Plan, and a different
// operating point must miss.
func TestEnginePlanCacheSharesPlans(t *testing.T) {
	img := testImg(t, "lena")
	h := histogram.Of(img)
	eng := NewEngine(EngineOptions{})
	planAt := func(e *Engine, r int) *Plan {
		t.Helper()
		plan, _, err := e.planFor(context.Background(), nil, h, r, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	p1 := planAt(eng, 150)
	if p2 := planAt(eng, 150); p1 != p2 {
		t.Fatal("same histogram and range: plan not served from cache")
	}
	if p3 := planAt(eng, 120); p3 == p1 {
		t.Fatal("different range must not hit the cache")
	}
	// Cache disabled: always a fresh plan.
	nocache := NewEngine(EngineOptions{PlanCacheSize: -1})
	q1, q2 := planAt(nocache, 150), planAt(nocache, 150)
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

// benchPlan solves lena's plan at range 150 for the apply benchmarks.
func benchPlan(b *testing.B, img *gray.Image) *Plan {
	b.Helper()
	plan, err := planFromHistogramCtx(context.Background(), nil, histogram.Of(img), 150,
		driver.DefaultConfig.Sources, nil)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkEngineApplyGray is the engine's gray apply: Λ through the
// sharded packed kernel into a reused frame buffer.
func BenchmarkEngineApplyGray(b *testing.B) {
	img, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	plan := benchPlan(b, img)
	out := gray.New(img.W, img.H)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Lambda.ApplyIntoShards(img, out, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineApplyRGB is ProcessColor's color apply: Λ over the
// interleaved plane through the sharded packed kernel.
func BenchmarkEngineApplyRGB(b *testing.B) {
	base, err := sipi.Generate("lena", 128, 128)
	if err != nil {
		b.Fatal(err)
	}
	img := rgb.FromGray(base)
	plan := benchPlan(b, base)
	out := rgb.New(img.W, img.H)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := img.ApplyLUTIntoShards(plan.Lambda, out, 1); err != nil {
			b.Fatal(err)
		}
	}
}
