package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"hebs/internal/driver"
	"hebs/internal/power"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// Bits of FuzzOptions' flags argument.
const (
	fuzzExact     = 1 << iota // Options.ExactSearch
	fuzzCurve                 // the small test curve instead of nil
	fuzzDriver                // driver.DefaultConfig instead of nil
	fuzzSubsystem             // power.DefaultSubsystem instead of nil
)

// FuzzOptions drives Engine.Process with Options built from fuzz
// inputs: the budget (NaN and ±Inf included), DynamicRange,
// ExactSearch, Curve, Segments, Driver and Subsystem. Every input must
// either fail — with the typed error where one is defined — or return
// a result at a valid operating point: R in [1, 255], β = R/255, a
// monotone Λ and a finite power saving. It must never panic.
func FuzzOptions(f *testing.F) {
	img, err := sipi.Generate("lena", 32, 32)
	if err != nil {
		f.Fatal(err)
	}
	curve := smallCurve(f)
	eng := NewEngine(EngineOptions{})
	f.Add(10.0, int16(0), uint8(fuzzExact), int8(0))
	f.Add(10.0, int16(0), uint8(fuzzCurve|fuzzDriver), int8(4))
	f.Add(0.0, int16(150), uint8(fuzzDriver|fuzzSubsystem), int8(8))
	f.Add(5.0, int16(300), uint8(0), int8(-1))
	f.Fuzz(func(t *testing.T, budget float64, dynRange int16, flags uint8, segments int8) {
		opts := Options{
			MaxDistortionPercent: budget,
			DynamicRange:         int(dynRange),
			ExactSearch:          flags&fuzzExact != 0,
			Segments:             int(segments),
		}
		if flags&fuzzCurve != 0 {
			opts.Curve = curve
		}
		if flags&fuzzDriver != 0 {
			opts.Driver = &driver.DefaultConfig
		}
		if flags&fuzzSubsystem != 0 {
			opts.Subsystem = &power.DefaultSubsystem
		}
		res, err := eng.Process(context.Background(), img, opts)
		if math.IsNaN(budget) || math.IsInf(budget, 0) {
			var nf *NonFiniteBudgetError
			if !errors.As(err, &nf) {
				t.Fatalf("budget %v: got %v, want *NonFiniteBudgetError", budget, err)
			}
			return
		}
		if opts.DynamicRange != 0 && opts.ExactSearch {
			var co *ConflictingOptionsError
			if !errors.As(err, &co) {
				t.Fatalf("DynamicRange %d with ExactSearch: got %v, want *ConflictingOptionsError", opts.DynamicRange, err)
			}
			return
		}
		if err != nil {
			return
		}
		defer res.Release()
		if res.Range < 1 || res.Range > transform.Levels-1 {
			t.Fatalf("%+v: range %d outside [1, 255]", opts, res.Range)
		}
		if want := float64(res.Range) / float64(transform.Levels-1); math.Abs(res.Beta-want) > 1e-15 {
			t.Fatalf("%+v: β %v, want R/255 = %v", opts, res.Beta, want)
		}
		if !res.Lambda.IsMonotone() {
			t.Fatalf("%+v: Λ not monotone", opts)
		}
		if math.IsNaN(res.PowerSavingPercent) || math.IsInf(res.PowerSavingPercent, 0) {
			t.Fatalf("%+v: power saving %v", opts, res.PowerSavingPercent)
		}
	})
}
