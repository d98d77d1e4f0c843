// Sharded color remap. Λ drives all three sub-pixels through one
// transfer function, so the interleaved R,G,B byte stream is still a
// pure per-byte map and any contiguous partition yields the same image.
// Workers therefore take contiguous byte bands of the interleaved
// plane rather than fanning out per channel: a stride-3 per-channel
// walk would touch every cache line three times from three cores,
// where byte bands stream each line exactly once.
package rgb

import (
	"errors"
	"fmt"

	"hebs/internal/gray"
	"hebs/internal/parallel"
	"hebs/internal/transform"
)

// minShardBytes is the per-shard work floor (matches the gray kernels'
// 32K-pixel gate): below it the goroutine spawn costs more than the
// scan it saves, and small frames stay serial.
const minShardBytes = 1 << 15

// ApplyLUTIntoShards is ApplyLUTInto with the byte scan split over up
// to `shards` goroutines. Byte-identical to ApplyLUTInto for every
// input; shards <= 1 or a frame too small to amortize the spawn cost
// fall back to the serial scan.
func (m *Image) ApplyLUTIntoShards(lut *transform.LUT, dst *Image, shards int) error {
	if dst == nil {
		return errors.New("rgb: ApplyLUTInto with nil destination")
	}
	if limit := len(m.Pix) / minShardBytes; shards > limit {
		shards = limit
	}
	if shards <= 1 {
		return m.ApplyLUTInto(lut, dst)
	}
	if m.W != dst.W || m.H != dst.H {
		return fmt.Errorf("rgb: ApplyLUTInto geometry mismatch %dx%d vs %dx%d",
			m.W, m.H, dst.W, dst.H)
	}
	parallel.Shard(len(m.Pix), shards, func(_, lo, hi int) {
		gray.ApplyLUTPacked(dst.Pix[lo:hi], m.Pix[lo:hi], (*[transform.Levels]uint8)(lut))
	})
	return nil
}
