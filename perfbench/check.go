package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"hebs/internal/power"
	"hebs/internal/transform"
	"hebs/internal/video"
)

// invariants checks one clip's output against the paper's guarantees:
// every frame's applied β is at least its target β, the global walk
// applies β = R/255 exactly, and the dimmed replay never costs more
// energy than the full-backlight one.
func invariants(w *workload, out clipOutput) error {
	if out.res == nil {
		return fmt.Errorf("no result")
	}
	for i, f := range out.res.Frames {
		if !(f.Beta >= f.TargetBeta) {
			return fmt.Errorf("frame %d: applied β %v below target β %v", i, f.Beta, f.TargetBeta)
		}
		if !w.zoned {
			beta, err := power.BetaForRange(f.Range, transform.Levels)
			if err != nil {
				return fmt.Errorf("frame %d: %w", i, err)
			}
			if math.Float64bits(beta) != math.Float64bits(f.Beta) {
				return fmt.Errorf("frame %d: β %v is not R/255 = %v", i, f.Beta, beta)
			}
		}
	}
	if w.replay && !(out.dimmed <= out.full) {
		return fmt.Errorf("dimmed energy %v J above full-backlight energy %v J", out.dimmed, out.full)
	}
	return nil
}

// sameOutput reports the first field in which two outputs of the same
// clip differ, comparing every float bit for bit.
func sameOutput(a, b clipOutput) error {
	if a.res == nil || b.res == nil {
		return fmt.Errorf("missing result")
	}
	if len(a.res.Frames) != len(b.res.Frames) {
		return fmt.Errorf("%d frames against %d", len(a.res.Frames), len(b.res.Frames))
	}
	for i := range a.res.Frames {
		if fa, fb := fields(a.res.Frames[i]), fields(b.res.Frames[i]); fa != fb {
			return fmt.Errorf("frame %d: %+v against %+v", i, a.res.Frames[i], b.res.Frames[i])
		}
	}
	if fa, fb := totals(a), totals(b); fa != fb {
		return fmt.Errorf("clip totals %v against %v", fa, fb)
	}
	return nil
}

// fields is a FrameResult as raw bits, one word per field.
func fields(f video.FrameResult) [7]uint64 {
	return [7]uint64{
		math.Float64bits(f.TargetBeta),
		math.Float64bits(f.Beta),
		uint64(int64(f.Range)),
		math.Float64bits(f.SavingPercent),
		math.Float64bits(f.Distortion),
		uint64(int64(f.Zones)),
		math.Float64bits(f.ZoneBetaSpread),
	}
}

// totals is a clip's summary and replay energies as raw bits.
func totals(o clipOutput) [5]uint64 {
	return [5]uint64{
		math.Float64bits(o.res.MeanSaving),
		math.Float64bits(o.res.MeanAbsDeltaBeta),
		math.Float64bits(o.res.MaxAbsDeltaBeta),
		math.Float64bits(o.dimmed),
		math.Float64bits(o.full),
	}
}

// digest hashes clip outputs in order: every FrameResult field, the
// clip summary and the replay energy totals, all as raw bits, so two
// builds that print the same digest produced byte-identical outputs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(o clipOutput) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = d.h.Write(buf[:]) // a hash.Hash never fails to write
	}
	put(uint64(len(o.res.Frames)))
	for _, f := range o.res.Frames {
		for _, v := range fields(f) {
			put(v)
		}
	}
	for _, v := range totals(o) {
		put(v)
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }
