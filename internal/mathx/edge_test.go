package mathx

import (
	"math"
	"testing"
)

// The helpers below sit under every numeric path in the pipeline, so
// their behaviour on NaN and ±Inf is part of their contract. These
// tests pin that behaviour: NaN propagates through Clamp and poisons
// Stats moments, and infinities clamp to the interval ends.

func TestClampNonFinite(t *testing.T) {
	if v := Clamp(math.Inf(1), 0, 10); v != 10 {
		t.Errorf("Clamp(+Inf) = %v, want 10", v)
	}
	if v := Clamp(math.Inf(-1), 0, 10); v != 0 {
		t.Errorf("Clamp(-Inf) = %v, want 0", v)
	}
	// NaN compares false with both bounds, so it passes through; callers
	// that must not see NaN guard before clamping.
	if v := Clamp(math.NaN(), 0, 10); !math.IsNaN(v) {
		t.Errorf("Clamp(NaN) = %v, want NaN", v)
	}
	// Infinite bounds are legal and behave as no-ops on that side.
	if v := Clamp(1e300, 0, math.Inf(1)); v != 1e300 {
		t.Errorf("Clamp with +Inf hi = %v, want 1e300", v)
	}
}

func TestLerpNonFinite(t *testing.T) {
	if v := Lerp(0, 1, math.Inf(1)); !math.IsInf(v, 1) {
		t.Errorf("Lerp(0,1,+Inf) = %v, want +Inf", v)
	}
	// Degenerate endpoints with an infinite parameter hit 0·Inf.
	if v := Lerp(2, 2, math.Inf(1)); !math.IsNaN(v) {
		t.Errorf("Lerp(2,2,+Inf) = %v, want NaN", v)
	}
	if v := Lerp(0, 1, math.NaN()); !math.IsNaN(v) {
		t.Errorf("Lerp(0,1,NaN) = %v, want NaN", v)
	}
}

func TestInvLerpNonFinite(t *testing.T) {
	if v := InvLerp(0, math.Inf(1), 1); v != 0 {
		t.Errorf("InvLerp(0,+Inf,1) = %v, want 0", v)
	}
	if v := InvLerp(0, 1, math.NaN()); !math.IsNaN(v) {
		t.Errorf("InvLerp(0,1,NaN) = %v, want NaN", v)
	}
	// NaN endpoints are unequal to everything, so the a == b guard does
	// not fire; the result is NaN rather than a panic.
	if v := InvLerp(math.NaN(), math.NaN(), 1); !math.IsNaN(v) {
		t.Errorf("InvLerp(NaN,NaN,1) = %v, want NaN", v)
	}
}

func TestAlmostEqualNonFinite(t *testing.T) {
	if AlmostEqual(math.NaN(), math.NaN(), 1) {
		t.Error("AlmostEqual(NaN, NaN) must be false")
	}
	if AlmostEqual(math.NaN(), 0, math.Inf(1)) {
		t.Error("AlmostEqual(NaN, 0, +Inf) must be false")
	}
	// Inf - Inf is NaN, so identical infinities do not compare equal
	// under a difference-based epsilon test.
	if AlmostEqual(math.Inf(1), math.Inf(1), 1) {
		t.Error("AlmostEqual(+Inf, +Inf) must be false")
	}
	if !AlmostEqual(0, 0, 0) {
		t.Error("AlmostEqual(0, 0, 0) must be true")
	}
}

func TestMeanVarianceNonFinite(t *testing.T) {
	if m, err := Mean([]float64{1, math.NaN(), 3}); err != nil || !math.IsNaN(m) {
		t.Errorf("Mean with NaN = %v, %v; want NaN", m, err)
	}
	if m, err := Mean([]float64{1, math.Inf(1)}); err != nil || !math.IsInf(m, 1) {
		t.Errorf("Mean with +Inf = %v, %v; want +Inf", m, err)
	}
	// An infinite sample makes the variance indeterminate (Inf − Inf).
	if v, err := Variance([]float64{1, math.Inf(1)}); err != nil || !math.IsNaN(v) {
		t.Errorf("Variance with +Inf = %v, %v; want NaN", v, err)
	}
}

func TestStatsNonFinite(t *testing.T) {
	var s Stats
	s.Add(1)
	s.Add(math.NaN())
	// NaN poisons the running moments...
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Variance()) {
		t.Errorf("Stats with NaN: mean %v variance %v, want NaN", s.Mean(), s.Variance())
	}
	// ...but min/max comparisons never see NaN as an extreme, so the
	// last finite extremes survive.
	if s.Min() != 1 || s.Max() != 1 {
		t.Errorf("Stats with NaN: min %v max %v, want 1, 1", s.Min(), s.Max())
	}

	var si Stats
	si.Add(0)
	si.Add(math.Inf(1))
	if !math.IsInf(si.Mean(), 1) {
		t.Errorf("Stats with +Inf: mean %v, want +Inf", si.Mean())
	}
	if !math.IsInf(si.Max(), 1) || si.Min() != 0 {
		t.Errorf("Stats with +Inf: min %v max %v, want 0, +Inf", si.Min(), si.Max())
	}
	if !math.IsNaN(si.Variance()) {
		t.Errorf("Stats with +Inf: variance %v, want NaN", si.Variance())
	}
}
