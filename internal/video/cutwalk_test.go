package video

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"hebs/internal/backlight"
	"hebs/internal/chart"
	"hebs/internal/core"
	"hebs/internal/gray"
	"hebs/internal/obs"
)

// perSceneOracle is the scene-by-scene form of cut detection: it splits
// the clip at the detected cuts, runs each scene through ProcessContext
// with the β-jump threshold off, all scenes on one engine, and
// aggregates over the whole clip. ProcessWithCutDetectionContext runs
// the clip as one walk instead and must match it exactly.
func perSceneOracle(t *testing.T, seq *Sequence, pol Policy, cutDistance float64) *Result {
	t.Helper()
	cuts, err := DetectCuts(seq, cutDistance)
	if err != nil {
		t.Fatal(err)
	}
	pol.CutThreshold = 0
	if pol.Engine == nil {
		pol.Engine = core.NewEngine(core.EngineOptions{})
	}
	bounds := append(append([]int{0}, cuts...), len(seq.Frames))
	res := &Result{}
	for k := 0; k+1 < len(bounds); k++ {
		scene, err := NewSequence(seq.Frames[bounds[k]:bounds[k+1]])
		if err != nil {
			t.Fatal(err)
		}
		r, err := ProcessContext(context.Background(), scene, pol)
		if err != nil {
			t.Fatalf("scene at frame %d: %v", bounds[k], err)
		}
		res.Frames = append(res.Frames, r.Frames...)
	}
	res.aggregate()
	res.Cuts = cuts
	return res
}

// testWalk is one of the two walks a policy routes a clip to.
type testWalk struct {
	name    string
	backend backlight.Backend
}

// bothWalks is the global walk (no backend) and the zoned walk on a
// 4×4 LED array.
func bothWalks(t *testing.T) []testWalk {
	return []testWalk{{"global", nil}, {"led:4x4", ledBackend(t, 4, 4)}}
}

// TestCutDetectionMatchesPerSceneOracle: the one cut-detected walk
// equals the scene-by-scene oracle bit for bit, on the global and the
// zoned walk, with delta analysis on and off, with and without range
// reuse, at one and at four workers. The slow pan after a cut is where
// a reuse estimator that ran on across the cut would differ: only a
// restarted one lets the pan's second frame reuse the first's range.
func TestCutDetectionMatchesPerSceneOracle(t *testing.T) {
	const cutDistance = 8
	fixtures := pipelineFixtures(t)
	slowPan, err := Pan(base(t), 48, 48, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	dark := darkFrame(t)
	if fixtures["cut-slowpan"], err = NewSequence(append([]*gray.Image{dark, dark, dark}, slowPan.Frames...)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mixed", "cut-slowpan"} {
		if cuts, err := DetectCuts(fixtures[name], cutDistance); err != nil || len(cuts) == 0 {
			t.Fatalf("%s fixture: cuts %v (%v), want at least one", name, cuts, err)
		}
	}
	for seqName, seq := range fixtures {
		for _, w := range bothWalks(t) {
			for _, delta := range []bool{false, true} {
				for _, reuse := range []float64{0, 4} {
					if reuse > 0 && w.backend != nil {
						continue // range reuse applies only to the global walk
					}
					pol := Policy{
						MaxStep:        0.01,
						CutThreshold:   0.15,
						ReuseThreshold: reuse,
						DeltaAnalysis:  delta,
						Backend:        w.backend,
						Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
					}
					want := perSceneOracle(t, seq, pol, cutDistance)
					for _, workers := range []int{1, 4} {
						pol.Workers = workers
						got, err := ProcessWithCutDetectionContext(context.Background(), seq, pol, cutDistance)
						if err != nil {
							t.Fatalf("%s %s delta=%v reuse=%v workers=%d: %v",
								seqName, w.name, delta, reuse, workers, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s delta=%v reuse=%v workers=%d: one walk differs from the per-scene oracle:\n got %+v\nwant %+v",
								seqName, w.name, delta, reuse, workers, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCutDetectionRecordsSnaps: on both walks a detected cut is a cut
// snap — its flight record says so, and no other frame's does — and the
// clip counts as one sequence, not one per scene.
func TestCutDetectionRecordsSnaps(t *testing.T) {
	clip := cuttyClip(t)
	cuts, err := DetectCuts(clip, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) == 0 {
		t.Fatal("cutty clip has no detected cuts")
	}
	isCut := make(map[int]bool, len(cuts))
	for _, c := range cuts {
		isCut[c] = true
	}
	for _, w := range bothWalks(t) {
		pol := Policy{
			MaxStep: 0.01,
			Backend: w.backend,
			Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
		}
		rec := obs.NewFlightRecorder(len(clip.Frames) + 8)
		prev := obs.SetFlightRecorder(rec)
		before := mSequences.Value()
		_, err := ProcessWithCutDetectionContext(context.Background(), clip, pol, 0)
		sequences := mSequences.Value() - before
		obs.SetFlightRecorder(prev)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if sequences != 1 {
			t.Errorf("%s: video.sequences_total rose by %d, want 1", w.name, sequences)
		}
		recs := rec.Snapshot()
		if len(recs) != len(clip.Frames) {
			t.Fatalf("%s: %d flight records, want %d", w.name, len(recs), len(clip.Frames))
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Frame < recs[j].Frame })
		for i, r := range recs {
			if r.Frame != i {
				t.Fatalf("%s: record %d is frame %d", w.name, i, r.Frame)
			}
			if r.CutSnap != isCut[i] {
				t.Errorf("%s frame %d: CutSnap = %v, want %v (cuts %v)", w.name, i, r.CutSnap, isCut[i], cuts)
			}
		}
	}
}

// TestCutDetectionCancellation: cancelling a cut clip from inside the
// metric returns context.Canceled with the aggregated contiguous prefix
// of the uncancelled run (empty when the cancellation lands in the
// range searches), and every pooled buffer is back.
func TestCutDetectionCancellation(t *testing.T) {
	const cutDistance = 8
	seq := pipelineFixtures(t)["mixed"]
	pol := Policy{
		MaxStep: 0.02,
		Options: core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	var total atomic.Int64
	pol.Options.Metric = func(a, b *gray.Image) (float64, error) {
		total.Add(1)
		return chart.UQIMetric(a, b)
	}
	full, err := ProcessWithCutDetectionContext(context.Background(), seq, pol, cutDistance)
	if err != nil {
		t.Fatal(err)
	}
	// Every range search precedes every Apply, so the first call lands
	// in the searches and the last few in the Apply phase.
	calls := total.Load()
	for _, workers := range []int{1, 4} {
		for _, cancelAt := range []int64{1, calls / 2, calls - 3} {
			ctx, cancel := context.WithCancel(context.Background())
			var n atomic.Int64
			pol.Options.Metric = func(a, b *gray.Image) (float64, error) {
				if n.Add(1) == cancelAt {
					cancel()
				}
				if err := ctx.Err(); err != nil {
					return 0, err
				}
				return chart.UQIMetric(a, b)
			}
			eng := core.NewEngine(core.EngineOptions{})
			pol.Engine = eng
			pol.Workers = workers
			res, err := ProcessWithCutDetectionContext(ctx, seq, pol, cutDistance)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d cancel at call %d: got %v, want context.Canceled", workers, cancelAt, err)
			}
			if res == nil || len(res.Frames) >= len(full.Frames) {
				t.Fatalf("workers=%d cancel at call %d: want a strict prefix, got %+v", workers, cancelAt, res)
			}
			k := len(res.Frames)
			want := &Result{Frames: append([]FrameResult(nil), full.Frames[:k]...), Cuts: full.Cuts}
			want.aggregate()
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("workers=%d cancel at call %d: %+v is not the aggregated %d-frame prefix %+v",
					workers, cancelAt, res, k, want)
			}
			if workers == 1 && cancelAt == 1 && k != 0 {
				t.Errorf("cancel in the first search kept %d frames, want none", k)
			}
			if workers == 1 && cancelAt == calls-3 && k == 0 {
				t.Error("cancel in the Apply phase kept no frames")
			}
			if inUse := eng.PoolStats().InUse(); inUse != 0 {
				t.Fatalf("workers=%d cancel at call %d: pool leak, %d buffers in use", workers, cancelAt, inUse)
			}
		}
	}
}
