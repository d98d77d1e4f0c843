package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp(0, 1, 0) should panic")
		}
	}()
	Clamp(0, 1, 0)
}

func TestClampIntPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ClampInt(0, 1, 0) should panic")
		}
	}()
	ClampInt(0, 1, 0)
}

func TestClampInt(t *testing.T) {
	if got := ClampInt(-3, 0, 255); got != 0 {
		t.Errorf("ClampInt(-3,0,255) = %d, want 0", got)
	}
	if got := ClampInt(300, 0, 255); got != 255 {
		t.Errorf("ClampInt(300,0,255) = %d, want 255", got)
	}
	if got := ClampInt(42, 0, 255); got != 42 {
		t.Errorf("ClampInt(42,0,255) = %d, want 42", got)
	}
}

func TestLerpInvLerpRoundTrip(t *testing.T) {
	f := func(a, b, tt float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(tt) {
			return true
		}
		if math.Abs(a) > 1e6 || math.Abs(b) > 1e6 || math.Abs(tt) > 1e3 {
			return true // avoid float cancellation blowups in the property
		}
		if math.Abs(b-a) < 1e-9 {
			return true
		}
		v := Lerp(a, b, tt)
		back := InvLerp(a, b, v)
		return math.Abs(back-tt) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvLerpPanicsOnDegenerate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InvLerp(1,1,1) should panic")
		}
	}()
	InvLerp(1, 1, 1)
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil {
		t.Fatal(err)
	}
	if m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Variance(nil); err != ErrEmpty {
		t.Errorf("Variance(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Covariance(nil, nil); err != ErrEmpty {
		t.Errorf("Covariance(nil,nil) err = %v, want ErrEmpty", err)
	}
}

func TestCovariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	c, err := Covariance(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	vx, _ := Variance(xs)
	if !AlmostEqual(c, 2*vx, 1e-12) {
		t.Errorf("Covariance = %v, want %v", c, 2*vx)
	}
}

func TestCovarianceMismatch(t *testing.T) {
	if _, err := Covariance([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("Covariance length mismatch should error")
	}
}

func TestStatsMatchesBatch(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var s Stats
	for _, x := range xs {
		s.Add(x)
	}
	m, _ := Mean(xs)
	v, _ := Variance(xs)
	if !AlmostEqual(s.Mean(), m, 1e-12) {
		t.Errorf("Stats.Mean = %v, want %v", s.Mean(), m)
	}
	if !AlmostEqual(s.Variance(), v, 1e-12) {
		t.Errorf("Stats.Variance = %v, want %v", s.Variance(), v)
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Errorf("Stats min/max = %v/%v, want 1/9", s.Min(), s.Max())
	}
	if s.N() != len(xs) {
		t.Errorf("Stats.N = %d, want %d", s.N(), len(xs))
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stats
	if s.Variance() != 0 || s.Mean() != 0 || s.N() != 0 {
		t.Error("zero-value Stats should report zeros")
	}
}

func TestStatsPropertyAgainstBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		var s Stats
		for _, x := range xs {
			s.Add(x)
		}
		m, _ := Mean(xs)
		v, _ := Variance(xs)
		scale := math.Max(1, math.Abs(m))
		vscale := math.Max(1, v)
		return AlmostEqual(s.Mean(), m, 1e-6*scale) && AlmostEqual(s.Variance(), v, 1e-6*vscale)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	q, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q != 35 {
		t.Errorf("median = %v, want 35", q)
	}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 15 || q1 != 50 {
		t.Errorf("q0/q1 = %v/%v, want 15/50", q0, q1)
	}
	// interpolated
	q25, _ := Quantile(xs, 0.25)
	if q25 != 20 {
		t.Errorf("q25 = %v, want 20", q25)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Error("Quantile(nil) should return ErrEmpty")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("Quantile q<0 should error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("Quantile q>1 should error")
	}
}

func TestQuantileSingle(t *testing.T) {
	q, err := Quantile([]float64{7}, 0.3)
	if err != nil || q != 7 {
		t.Errorf("Quantile single = %v, %v", q, err)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_, _ = Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if math.IsNaN(qa) || math.IsNaN(qb) {
			return true
		}
		if qa > qb {
			qa, qb = qb, qa
		}
		va, err1 := Quantile(xs, qa)
		vb, err2 := Quantile(xs, qb)
		return err1 == nil && err2 == nil && va <= vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertionSortLong(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64((i*7919 + 13) % 1000)
	}
	insertionSort(xs)
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			t.Fatalf("not sorted at %d: %v > %v", i, xs[i-1], xs[i])
		}
	}
}
