package plc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"hebs/internal/equalize"
	"hebs/internal/histogram"
	"hebs/internal/rng"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// newChordTable allocates and fills a standalone chord table outside
// the scratch pool.
func newChordTable(pts []transform.Point) *chordTable {
	n := len(pts)
	t := &chordTable{
		px:  make([]float64, n+1),
		pxx: make([]float64, n+1),
		py:  make([]float64, n+1),
		pyy: make([]float64, n+1),
		pxy: make([]float64, n+1),
	}
	t.fill(pts)
	return t
}

// coarsenRowMajor is the plain Eq. 9 recurrence in its textbook loop
// order (k outer, then j, then i), with freshly allocated dp/parent
// matrices and no pool. It re-evaluates e(i, j) once per row k. The
// column-major sweep in CoarsenCtx must reproduce it bit for bit:
// same Indices, same MSE bits.
func coarsenRowMajor(pts []transform.Point, m int) (*Result, error) {
	n := len(pts)
	cerr := newChordTable(pts)
	const inf = math.MaxFloat64
	dp := make([][]float64, m+1)
	parent := make([][]int, m+1)
	for k := range dp {
		dp[k] = make([]float64, n)
		parent[k] = make([]int, n)
		for j := range dp[k] {
			dp[k][j] = inf
			parent[k][j] = -1
		}
	}
	dp[0][0] = 0
	for k := 1; k <= m; k++ {
		for j := k; j < n; j++ {
			best := inf
			bestI := -1
			for i := k - 1; i < j; i++ {
				//hebslint:allow floateq MaxFloat64 is an exact "unreached" marker
				if dp[k-1][i] == inf {
					continue
				}
				c := dp[k-1][i] + cerr.at(i, j)
				if c < best {
					best = c
					bestI = i
				}
			}
			dp[k][j] = best
			parent[k][j] = bestI
		}
	}
	//hebslint:allow floateq MaxFloat64 is an exact "unreached" marker
	if dp[m][n-1] == inf {
		return nil, fmt.Errorf("plc: no feasible %d-segment cover", m)
	}
	idx := make([]int, m+1)
	j := n - 1
	for k := m; k >= 1; k-- {
		idx[k] = j
		j = parent[k][j]
	}
	return &Result{Indices: idx, Segments: m, MSE: dp[m][n-1] / float64(n)}, nil
}

// sameAsRowMajor reports how res differs from the row-major oracle on
// the same instance, or "" when Indices and MSE bits match exactly.
func sameAsRowMajor(pts []transform.Point, m int, res *Result) string {
	want, err := coarsenRowMajor(pts, m)
	if err != nil {
		return "oracle: " + err.Error()
	}
	if len(res.Indices) != len(want.Indices) {
		return fmt.Sprintf("indices %v, oracle %v", res.Indices, want.Indices)
	}
	for i := range want.Indices {
		if res.Indices[i] != want.Indices[i] {
			return fmt.Sprintf("indices %v, oracle %v", res.Indices, want.Indices)
		}
	}
	if math.Float64bits(res.MSE) != math.Float64bits(want.MSE) {
		return fmt.Sprintf("MSE %v (%#x), oracle %v (%#x)",
			res.MSE, math.Float64bits(res.MSE), want.MSE, math.Float64bits(want.MSE))
	}
	return ""
}

// tieCurve is a staircase (step > 0) or constant (step == 0) curve
// over n strictly increasing X positions with random gaps. Flat treads
// make many chords tie at zero error, which exercises the DP's
// first-i-wins tie-break.
func tieCurve(s *rng.Source, n int, step float64) []transform.Point {
	pts := make([]transform.Point, n)
	tread := 1 + s.Intn(8)
	x, base := 0, s.Float64()*100
	for i := range pts {
		pts[i] = transform.Point{X: x, Y: base + step*float64(i/tread)}
		x += 1 + s.Intn(3)
	}
	return pts
}

func TestCoarsenMatchesRowMajorOracle(t *testing.T) {
	suite, err := sipi.Suite(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 32, 255}
	for si, ni := range suite {
		ghe, err := equalize.SolveRange(histogram.Of(ni.Image), 100+8*si)
		if err != nil {
			t.Fatal(err)
		}
		pts := ghe.Points()
		for _, m := range ms {
			res, err := Coarsen(pts, m)
			if err != nil {
				t.Fatalf("%s m=%d: %v", ni.Name, m, err)
			}
			if diff := sameAsRowMajor(pts, m, res); diff != "" {
				t.Errorf("%s (n=%d, m=%d): %s", ni.Name, len(pts), m, diff)
			}
		}
	}

	s := rng.New(17)
	for trial := 0; trial < 200; trial++ {
		n := 2 + s.Intn(90)
		m := 1 + s.Intn(n-1)
		step := 0.0
		if trial%2 == 0 {
			step = float64(1 + s.Intn(4))
		}
		pts := tieCurve(s, n, step)
		res, err := Coarsen(pts, m)
		if err != nil {
			t.Fatalf("trial %d (n=%d, m=%d): %v", trial, n, m, err)
		}
		if diff := sameAsRowMajor(pts, m, res); diff != "" {
			t.Errorf("trial %d (n=%d, m=%d, step=%v): %s", trial, n, m, step, diff)
		}
	}
}

// cancelAfterCtx is a context whose Err starts failing after its first
// ok calls.
type cancelAfterCtx struct {
	context.Context
	ok, calls int
}

func (c *cancelAfterCtx) Err() error {
	c.calls++
	if c.calls > c.ok {
		return context.Canceled
	}
	return nil
}

// TestCoarsenCancelThenPoolReuse cancels solves at every check the
// solver makes, then runs solves of alternating shapes and curves
// through the same scratch pool. Each must match the row-major
// oracle: neither a half-written nor a resized scratch may leak into
// a later result.
func TestCoarsenCancelThenPoolReuse(t *testing.T) {
	s := rng.New(29)
	walk := func(n int) []transform.Point {
		pts := make([]transform.Point, n)
		y := 0.0
		for i := range pts {
			y += s.Float64() * 3
			pts[i] = transform.Point{X: i, Y: y}
		}
		return pts
	}
	const n, m = 256, 10
	pts := walk(n)
	var cancels int
	for ok := 0; ; ok++ {
		ctx := &cancelAfterCtx{Context: context.Background(), ok: ok}
		res, err := CoarsenCtx(ctx, nil, pts, m)
		if err == nil {
			if ok <= 1 {
				t.Fatalf("solve finished after %d ctx checks; the sweep never checked ctx", ok)
			}
			if diff := sameAsRowMajor(pts, m, res); diff != "" {
				t.Fatalf("uncancelled solve: %s", diff)
			}
			break
		}
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancel after %d checks: res=%v err=%v, want nil and context.Canceled", ok, res, err)
		}
		cancels++
	}
	if want := 1 + (n-2)/ctxStride + 1; cancels != want {
		t.Errorf("cancelled at %d check points, want %d (one before the sweep, one per %d columns)", cancels, want, ctxStride)
	}

	shapes := []struct{ n, m int }{{256, 10}, {64, 3}, {256, 10}, {17, 16}, {256, 1}, {256, 255}, {64, 3}, {256, 10}}
	for round, sh := range shapes {
		if round%2 == 0 {
			// Leave a half-written scratch of this shape in the pool.
			ctx := &cancelAfterCtx{Context: context.Background(), ok: 2}
			if _, err := CoarsenCtx(ctx, nil, walk(sh.n), sh.m); !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: cancel mid-sweep: %v", round, err)
			}
		}
		p := walk(sh.n)
		res, err := Coarsen(p, sh.m)
		if err != nil {
			t.Fatalf("round %d (n=%d, m=%d): %v", round, sh.n, sh.m, err)
		}
		if diff := sameAsRowMajor(p, sh.m, res); diff != "" {
			t.Errorf("round %d (n=%d, m=%d): %s", round, sh.n, sh.m, diff)
		}
	}
}
