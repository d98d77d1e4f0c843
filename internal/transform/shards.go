// Sharded LUT application. Remapping is a pure per-pixel map — each
// output byte depends on exactly one input byte — so any partition of
// the pixel slice produces the same image. ApplyIntoShards splits the
// scan into contiguous pixel bands (whole cache lines per worker, no
// false sharing on the destination), each band remapped by the packed
// kernel, and is defined to be byte-equal to ApplyInto on every input.
package transform

import (
	"errors"
	"fmt"

	"hebs/internal/gray"
	"hebs/internal/parallel"
)

// minShardPixels is the per-shard work floor shared by the sharded
// pixel kernels: below ~32K pixels per worker the goroutine spawn costs
// more than the scan it saves, so small frames stay serial (the video
// scheduler parallelizes across frames instead).
const minShardPixels = 1 << 15

// ApplyIntoShards is ApplyInto with the pixel scan split over up to
// `shards` goroutines. Byte-identical to ApplyInto for every input;
// shards <= 1 or a frame too small to amortize the spawn cost fall
// back to the serial scan.
func (l *LUT) ApplyIntoShards(src, dst *gray.Image, shards int) error {
	if src == nil || dst == nil {
		return errors.New("transform: ApplyInto with nil image")
	}
	if limit := len(src.Pix) / minShardPixels; shards > limit {
		shards = limit
	}
	if shards <= 1 {
		return l.ApplyInto(src, dst)
	}
	if src.W != dst.W || src.H != dst.H {
		return fmt.Errorf("transform: ApplyInto geometry mismatch %dx%d vs %dx%d",
			src.W, src.H, dst.W, dst.H)
	}
	parallel.Shard(len(src.Pix), shards, func(_, lo, hi int) {
		gray.ApplyLUTPacked(dst.Pix[lo:hi], src.Pix[lo:hi], (*[Levels]uint8)(l))
	})
	return nil
}
