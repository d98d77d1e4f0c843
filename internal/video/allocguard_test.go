package video

import (
	"context"
	"strings"
	"testing"

	"hebs/internal/core"
	"hebs/internal/invariant"
	"hebs/internal/noalloc"
)

// steadyStateAllocBudget is the checked-in steady-state clip cost:
// BENCH_pipeline.json records 23 allocs/op for video/steady16 (one
// warm 16-frame static clip through a shared engine), and this guard
// keeps that number from silently creeping. The budget is the
// irreducible per-clip bookkeeping — the Result and its frame slices,
// the per-clip span — not per-frame work: the per-frame loop itself
// is proven allocation-free by hebsvet's //hebs:noalloc gate.
const steadyStateAllocBudget = 23

// TestSteadyStateAllocGuard is the bench guard for the headline
// steady-state number, run as a test so `go test ./internal/video`
// catches an allocation regression without a benchmark round-trip. It
// measures the plain policy and the same policy with DeltaAnalysis on,
// both against the one budget. On failure it prints the module's
// //hebs:noalloc inventory (the `hebsvet -list` rendering): per-frame
// regressions show up as ~16× jumps and the function that started
// allocating is one of these — `go run ./cmd/hebsvet -v` names the
// exact escaping expression.
func TestSteadyStateAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard skipped in -short mode")
	}
	// Neither build measures the production program: race mode makes
	// sync.Pool drop items on purpose, and hebscheck compiles in
	// invariant checks that allocate.
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if invariant.Enabled {
		t.Skip("allocation counts are not meaningful under -tags hebscheck")
	}
	seq := steadyClip(t)
	ctx := context.Background()
	for _, delta := range []bool{false, true} {
		pol := steadyPolicy()
		pol.DeltaAnalysis = delta
		pol.Engine = core.NewEngine(core.EngineOptions{})
		// Warm the pools and the plan cache outside the measurement.
		if _, err := ProcessContext(ctx, seq, pol); err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ProcessContext(ctx, seq, pol); err != nil {
					b.Fatal(err)
				}
			}
		})
		if allocs := res.AllocsPerOp(); allocs > steadyStateAllocBudget {
			inv, err := noalloc.Scan("../..")
			suspects := ""
			if err != nil {
				suspects = "(noalloc inventory unavailable: " + err.Error() + ")"
			} else {
				var sb strings.Builder
				inv.WriteList(&sb)
				suspects = sb.String()
			}
			t.Errorf("steady-state clip (DeltaAnalysis=%v) allocates %d objects/op; budget %d (BENCH_pipeline.json video/steady16)\n"+
				"per-frame leaks show up as ~16x jumps; the //hebs:noalloc inventory below names the hot-path\n"+
				"functions to re-check with `go run ./cmd/hebsvet -v`:\n%s",
				delta, allocs, steadyStateAllocBudget, suspects)
		}
	}
}
