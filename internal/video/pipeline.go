// The global-lamp frame walk. Every clip that is not handed to the
// zoned walk runs here, at every Workers setting. A HEBS video walk
// interleaves three kinds of work with very different dependency
// structure:
//
//   - Per-frame statistics (histogram) and the admissible-range search
//     — pure functions of the frame, embarrassingly parallel.
//   - The reuse decision and the β-slew/cut governor — an inherently
//     serial chain: Eq. 10 reprograms the driver frame to frame, so
//     each frame's applied β depends on the previous frame's, and the
//     estimator folds histograms in stream order.
//   - Apply + the distortion/power measurements at the resolved range
//     — again pure per-frame functions once the range is fixed.
//
// processClip runs the walk as phases along exactly those lines: fan
// out the statistics and searches, run the governor serially over the
// collected numbers (O(256) folds and a handful of float ops per frame
// — microseconds for any clip), then fan the Apply/measure stage back
// out. With one worker every fan-out runs inline on the calling
// goroutine in frame order, so the serial case is this code path, not
// a copy of it. The outputs — frames, β sequences, driver programs,
// aggregates — are byte-identical at every worker count and equal to
// the paper's plain per-frame loop, which the package tests keep as a
// serial oracle (TestPipelinedMatchesSerial, TestDeltaMatchesFull).
package video

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hebs/internal/core"
	"hebs/internal/histogram"
	"hebs/internal/invariant"
	"hebs/internal/obs"
	"hebs/internal/parallel"
	"hebs/internal/power"
	"hebs/internal/transform"
)

// policyWorkers resolves Policy.Workers (0/1 one worker, n > 1
// bounded, negative GOMAXPROCS) against the clip length.
func policyWorkers(n, frames int) int {
	if n == 0 {
		return 1
	}
	return parallel.Workers(n, frames)
}

// frameState carries one frame through the phases: its histogram
// (phase A), the reuse flag (B), the selected range (C), the
// governor's decision record (D) — what the frame's own HEBS optimum
// was, which range Apply must run at after slew limiting, which policy
// events fired — and the frame result (E).
type frameState struct {
	hist       histogram.Histogram
	reuse      bool
	rng        int     // selected admissible range (non-reuse frames)
	target     float64 // per-frame optimum β = BetaForRange(target range)
	applyRange int     // range the frame is actually transformed at
	slew       bool
	cut        bool
	// Delta-analysis state (DeltaAnalysis only): identical marks a frame
	// whose pixels are checksum-equal to its predecessor's (the pooled
	// reference for frame 0), replay marks one that resolves its range
	// from the own-range memo instead of searching, tileRatio is
	// changed/total tiles, and fused frames copy their measurements from
	// copySrc (a frame index, or -2 for the pooled cross-clip record)
	// instead of measuring.
	identical bool
	replay    bool
	tileRatio float64
	fused     bool
	copySrc   int
	fr        FrameResult
	done      bool
}

// clipState is the pooled scratch of one walk: a frameState per frame
// and one index list, used first for the frames that search (phase C)
// and then for the apply order (phase E). A steady-state clip reuses
// all of it and allocates a handful of objects per clip, not per
// frame.
type clipState struct {
	frames []frameState
	idx    []int
}

// minHistFanoutPixels is the per-frame work floor for fanning out the
// statistics phase (matches the sharded kernels' 32K-pixel gate).
const minHistFanoutPixels = 1 << 15

// statePool recycles clip state across walks.
var statePool = sync.Pool{New: func() any { return new(clipState) }}

// getClipState draws clip state for n frames from the pool, growing it
// only when a longer clip arrives.
//
//hebs:noalloc
func getClipState(n int) *clipState {
	cs := statePool.Get().(*clipState)
	if cap(cs.frames) < n {
		//hebs:noalloc-allow clip-state growth on first longer clip; amortized to zero in steady state
		cs.frames = make([]frameState, n)
		//hebs:noalloc-allow index-list growth on first longer clip; amortized to zero in steady state
		cs.idx = make([]int, 0, n)
	}
	cs.frames = cs.frames[:n]
	for i := range cs.frames {
		cs.frames[i] = frameState{}
	}
	return cs
}

// processClip is the walk behind ProcessContext for the global lamp.
// At each frame in cuts (ascending) the reuse estimator restarts and
// the governor snaps; the delta fold, replay chain and fusion carry
// across, certified by pixel identity. A cancellation mid-clip returns
// the aggregated contiguous prefix of frames whose Apply/measure phase
// completed (empty when it strikes before phase E) with ctx's error.
func processClip(ctx context.Context, seq *Sequence, pol Policy, cuts []int) (*Result, error) {
	eng := pol.Engine
	if eng == nil {
		eng = core.NewEngine(core.EngineOptions{Workers: pol.Workers})
	}
	n := len(seq.Frames)
	workers := policyWorkers(pol.Workers, n)
	// The phase closures capture this instead of pol: a Policy is too
	// large to capture by value, and capturing it by reference would
	// move it to the heap on every clip.
	base := pol.Options
	sp := pol.Options.Trace.Child("video.Process")
	defer sp.End()
	sp.SetInt("frames", n)
	sp.SetInt("workers", workers)
	mSequences.Inc()
	res := &Result{}
	// finish aggregates whatever prefix completed and reports clipErr
	// (nil for a full run).
	finish := func(clipErr error) (*Result, error) {
		res.aggregate()
		if clipErr != nil {
			return res, clipErr
		}
		return res, nil
	}

	cs := getClipState(n)
	defer statePool.Put(cs)
	st := cs.frames

	// Phase A0 — incremental analysis (DeltaAnalysis only). The tile
	// fold is a serial chain (each frame diffs against its predecessor)
	// but UpdateShards fans out across tiles within a frame, and the
	// fold replaces the per-frame full histogram scans below.
	var ds *deltaState
	var dsOwnRange int
	var dsOwnValid bool
	var dsMeas deltaMeas
	if pol.DeltaAnalysis {
		d, err := acquireDelta(seq.Frames[0].W, seq.Frames[0].H, pol.TileSize, pol.Options)
		if err != nil {
			return nil, err
		}
		ds = d
		defer releaseDelta(ds)
		// Capture the pooled memoizations and invalidate them until the
		// clip completes cleanly: after the fold below the tile reference
		// tracks the LAST frame, so a partial run must not leave stale
		// range/measurement records paired with it.
		dsOwnRange, dsOwnValid, dsMeas = ds.ownRange, ds.ownValid, ds.meas
		ds.ownValid = false
		ds.meas.valid = false
		for i := range st {
			changed, total, err := ds.delta.UpdateShards(seq.Frames[i], &st[i].hist, workers)
			if err != nil {
				return nil, fmt.Errorf("video: frame %d: %w", i, err)
			}
			mTilesRebinned.Add(int64(changed))
			st[i].tileRatio = float64(changed) / float64(total)
			st[i].identical = changed == 0
		}
	}

	// Phase A+B — reuse decisions. Frame histograms are independent
	// (fan out); the estimator fold is stream-ordered (serial). Frame 0
	// and each detected cut never reuse: the estimator is empty until it
	// has observed a frame of the scene.
	if pol.ReuseThreshold > 0 {
		est, err := histogram.NewEstimator(0.5)
		if err != nil {
			return nil, err
		}
		// Small frames scan in microseconds; below the work floor the
		// fan-out costs more than it saves, and ForEach with one worker
		// runs inline (no goroutines, no allocations). With delta
		// analysis on, the fold above already filled every histogram.
		if ds == nil {
			hw := workers
			if len(seq.Frames[0].Pix) < minHistFanoutPixels {
				hw = 1
			}
			if err := parallel.ForEach(ctx, n, hw, func(i int) error {
				histogram.OfInto(seq.Frames[i], &st[i].hist)
				return nil
			}); err != nil {
				return finish(err) // only ctx errors escape this phase
			}
		}
		rest := cuts
		for i := range st {
			if len(rest) > 0 && rest[0] == i {
				rest = rest[1:]
				est.Reset()
			}
			if est.Ready() {
				d, err := est.Distance(&st[i].hist)
				if err != nil {
					return nil, err
				}
				st[i].reuse = d < pol.ReuseThreshold
			}
			if err := est.Observe(&st[i].hist); err != nil {
				return nil, err
			}
		}
	}

	// Phase C — admissible-range search for every frame that will not
	// inherit its range, fanned out with per-worker pooled scratch
	// (the engine's buffer pool plus its shared reconstruction-LUT
	// cache back the exact search). The job list is compacted to the
	// searching frames so a steady-state clip (one search, the rest
	// reused) runs inline with no pool spawn at all.
	// Replay chain (DeltaAnalysis only): the own-range memo is valid for
	// a frame exactly when its pixels are certified identical to the
	// pixels the memo's search ran on — i.e. every frame since the last
	// searched frame (or the pooled reference) was identical, with the
	// chain broken by a non-identical reused frame (its own search never
	// runs, so the memo goes stale). Replay frames skip phase C; the
	// memo value itself is threaded through phase D.
	ownOK := dsOwnValid
	if ds != nil {
		for i := range st {
			st[i].replay = st[i].identical && !st[i].reuse && ownOK
			switch {
			case st[i].reuse:
				if !st[i].identical {
					ownOK = false
				}
			case st[i].replay:
				// Memo replayed; still anchored to these pixels.
			default:
				// This frame searches in phase C, re-anchoring the memo.
				ownOK = true
			}
		}
	}
	search := cs.idx[:0]
	for i := range st {
		if !st[i].reuse && !st[i].replay {
			search = append(search, i)
		}
	}
	if err := parallel.ForEach(ctx, len(search), workers, func(k int) error {
		i := search[k]
		// The search runs before the frame's Apply span opens; its own
		// span, tagged with the frame, keeps the time attributed.
		ssp := sp.Child("video.range_search")
		ssp.SetInt("frame", i)
		opts := base
		opts.Trace = ssp
		r, _, err := eng.SelectRange(ctx, seq.Frames[i], opts)
		ssp.End()
		if err != nil {
			return fmt.Errorf("video: frame %d: %w", i, err)
		}
		st[i].rng = r
		return nil
	}); err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return finish(cerr)
		}
		return nil, err
	}

	// Phase D — the serial governor: resolve inherited ranges, then
	// run the fast-attack/slow-decay β track with cut snapping (at a
	// detected cut or a β jump beyond CutThreshold), including the
	// re-quantization of a slew-limited β through RangeForBeta — the
	// applied β must sit on the driver's range grid.
	prevBeta := math.NaN()
	tr := 0
	// Delta bookkeeping (DeltaAnalysis only): ownRng is the threaded
	// own-range memo the replay frames resolve to; head is the most
	// recent frame of the current pixel-identity run that measures fully
	// (-1: none yet); poolChain holds while the identity run extends
	// back to the pooled cross-clip reference frame.
	ownRng := dsOwnRange
	head := -1
	poolChain := true
	rest := cuts
	for i := 0; i < n; i++ {
		sceneCut := len(rest) > 0 && rest[0] == i
		if sceneCut {
			rest = rest[1:]
		}
		switch {
		case st[i].replay:
			tr = ownRng
		case !st[i].reuse:
			tr = st[i].rng
			ownRng = st[i].rng // fresh search re-anchors the memo
		}
		target, err := power.BetaForRange(tr, transform.Levels)
		if err != nil {
			return nil, fmt.Errorf("video: frame %d: %w", i, err)
		}
		applied := target
		cutSnap := false
		if !math.IsNaN(prevBeta) && pol.MaxStep > 0 {
			delta := target - prevBeta
			isCut := sceneCut || pol.CutThreshold > 0 && math.Abs(delta) > pol.CutThreshold
			cutSnap = isCut
			// Brightening (delta >= 0) is immediate: staying below the
			// frame's target would exceed its distortion budget. Dimming
			// is slew-limited unless a scene cut masks it.
			if delta < -pol.MaxStep && !isCut {
				applied = prevBeta - pol.MaxStep
			}
		}
		st[i].target = target
		st[i].applyRange = tr
		st[i].cut = cutSnap
		finalBeta := target
		//hebslint:allow floateq applied is assigned from target unless slew-limited
		if applied != target {
			st[i].slew = true
			rng, err := power.RangeForBeta(applied, transform.Levels)
			if err != nil {
				return nil, fmt.Errorf("video: frame %d: %w", i, err)
			}
			st[i].applyRange = rng
			finalBeta, err = power.BetaForRange(rng, transform.Levels)
			if err != nil {
				return nil, fmt.Errorf("video: frame %d: %w", i, err)
			}
		}
		// Fusion eligibility: a frame may copy its measurements from the
		// measuring head of its pixel-identity run (or from the pooled
		// cross-clip record while the run reaches back to the reference
		// frame) when the applied range matches — identical pixels at an
		// identical operating point measure identically.
		if ds != nil {
			if !st[i].identical {
				head = -1
				poolChain = false
			}
			if st[i].identical {
				if head >= 0 && st[head].applyRange == st[i].applyRange {
					st[i].fused = true
					st[i].copySrc = head
				} else if head < 0 && poolChain && dsMeas.valid && dsMeas.rng == st[i].applyRange {
					st[i].fused = true
					st[i].copySrc = -2
				}
			}
			if !st[i].fused {
				head = i
			}
		}
		if st[i].reuse {
			mRangeReuse.Inc()
		}
		if st[i].cut {
			mCutSnaps.Inc()
		}
		if st[i].slew {
			mSlewLimited.Inc()
		}
		if invariant.Enabled {
			invariant.AssertBeta("video: target β", st[i].target)
			invariant.AssertBeta("video: applied β", finalBeta)
			if pol.MaxStep > 0 && !math.IsNaN(prevBeta) && !cutSnap {
				// The track may only dim by MaxStep per frame (plus the
				// 1/(G−1) quantization of mapping β back through
				// RangeForBeta's floor).
				invariant.Assert(prevBeta-finalBeta <= pol.MaxStep+1.0/float64(transform.Levels-1)+1e-9,
					"video: dimming slew %v exceeds MaxStep %v", prevBeta-finalBeta, pol.MaxStep)
			}
		}
		prevBeta = finalBeta
	}

	// Phase E — Apply and measure at the resolved ranges, fanned out in
	// two waves over the apply order: the frames that measure, in frame
	// order, then the fused frames, which copy measurements from their
	// identity run's head and so must wait for the first wave (without
	// delta analysis no frame fuses and the second wave is empty).
	// Results land in per-frame slots; a cancellation keeps the
	// contiguous completed prefix.
	order := cs.idx[:0]
	for i := range st {
		if !st[i].fused {
			order = append(order, i)
		}
	}
	nFull := len(order)
	for i := range st {
		if st[i].fused {
			order = append(order, i)
		}
	}
	hashHist := pol.ReuseThreshold > 0 || ds != nil // phase A filled st[i].hist
	applyFrame := func(k int) error {
		i := order[k]
		start := time.Now()
		fsp := sp.Child("video.frame")
		defer fsp.End()
		fsp.SetInt("frame", i)
		defer func() { mFrameLatency.ObserveDuration(time.Since(start)) }()
		mFrames.Inc()
		gInflight.Add(1)
		defer gInflight.Add(-1)
		if st[i].reuse {
			fsp.SetBool("range_reused", true)
		}
		if st[i].cut {
			fsp.SetBool("cut_snap", true)
		}
		if st[i].slew {
			fsp.SetBool("slew_limited", true)
		}
		if ds != nil {
			fsp.SetFloat("tile_change_ratio", st[i].tileRatio)
		}
		fr := FrameResult{TargetBeta: st[i].target}
		var planCached bool
		if st[i].fused {
			// Fused fast path: no engine call. The measurements are copied
			// from the identity run's head (which the first apply wave
			// already completed) or the pooled cross-clip record.
			fsp.SetBool("fused_apply", true)
			mFastPath.Inc()
			src := dsMeas
			if st[i].copySrc >= 0 {
				f := st[st[i].copySrc].fr
				src = deltaMeas{rng: f.Range, beta: f.Beta,
					distortion: f.Distortion, saving: f.SavingPercent}
			}
			fr.Beta = src.beta
			fr.Range = src.rng
			fr.Distortion = src.distortion
			fr.SavingPercent = src.saving
		} else {
			opts := base
			opts.Trace = fsp
			opts.DynamicRange = st[i].applyRange
			opts.MaxDistortionPercent = 0
			opts.ExactSearch = false
			r, err := eng.Process(ctx, seq.Frames[i], opts)
			if err != nil {
				if st[i].slew {
					return fmt.Errorf("video: frame %d (smoothed): %w", i, err)
				}
				return fmt.Errorf("video: frame %d: %w", i, err)
			}
			fr.Beta = r.Beta
			fr.Range = r.Range
			fr.Distortion = r.AchievedDistortion
			fr.SavingPercent = r.PowerSavingPercent
			planCached = r.PlanCached
			before := r.PowerBefore
			r.Release()
			if before <= 0 {
				return fmt.Errorf("power: non-positive baseline power %v", before)
			}
		}
		fsp.SetFloat("target_beta", fr.TargetBeta)
		fsp.SetFloat("applied_beta", fr.Beta)
		fsp.SetInt("range", fr.Range)
		fsp.SetFloat("saving_pct", fr.SavingPercent)
		if rec := obs.Flight(); rec != nil {
			var hh uint64
			if hashHist {
				hh = flightHistHash(&st[i].hist)
			}
			rec.Record(obs.FrameRecord{
				Frame:           i,
				TargetBeta:      fr.TargetBeta,
				Beta:            fr.Beta,
				Range:           fr.Range,
				HistHash:        hh,
				PlanCached:      planCached,
				RangeReused:     st[i].reuse,
				CutSnap:         st[i].cut,
				SlewLimited:     st[i].slew,
				FusedApply:      st[i].fused,
				TileChangeRatio: st[i].tileRatio,
				Workers:         workers,
				Seconds:         time.Since(start).Seconds(),
			})
		}
		st[i].fr = fr
		st[i].done = true
		return nil
	}
	applyErr := parallel.ForEach(ctx, nFull, workers, applyFrame)
	if applyErr == nil && nFull < n {
		applyErr = parallel.ForEach(ctx, n-nFull, workers, func(k int) error {
			return applyFrame(nFull + k)
		})
	}
	if applyErr != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(applyErr, cerr) {
			for i := 0; i < n && st[i].done; i++ {
				res.Frames = append(res.Frames, st[i].fr)
			}
			return finish(cerr)
		}
		return nil, applyErr
	}
	res.Frames = make([]FrameResult, n)
	for i := range st {
		res.Frames[i] = st[i].fr
	}
	if ds != nil {
		// The clip completed cleanly: re-validate the pooled memoizations
		// against the tile reference (now the last frame). ownRng/ownOK
		// carry the threaded own-range memo; the measurement record is the
		// last frame's applied-range numbers.
		last := st[n-1].fr
		ds.ownRange, ds.ownValid = ownRng, ownOK
		ds.meas = deltaMeas{rng: last.Range, beta: last.Beta,
			distortion: last.Distortion, saving: last.SavingPercent, valid: true}
	}
	return finish(nil)
}
