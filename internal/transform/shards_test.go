package transform

import (
	"math/rand"
	"testing"

	"hebs/internal/gray"
)

// scalarRemap is the test oracle for every LUT entry point: the plain
// per-byte loop dst[i] = lut[src[i]].
func scalarRemap(lut *LUT, src []uint8) []uint8 {
	dst := make([]uint8, len(src))
	for i := range src {
		dst[i] = lut[src[i]]
	}
	return dst
}

// kernelSizes straddles the sharded kernels' 32K-pixel work floor:
// pixel counts not divisible by 8 below it, just above it (one shard
// allowed), and large enough for seven shards, whose band bounds fall
// mid-word.
var kernelSizes = []struct{ w, h int }{{1, 1}, {13, 7}, {181, 181}, {257, 129}, {333, 701}}

// TestApplyIntoShardsEqualsSerial: the sharded remap is byte-equal to
// the scalar oracle (and so to ApplyInto) across frame sizes on both
// sides of the work-floor gate and across shard counts.
func TestApplyIntoShardsEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var lut LUT
	for i := range lut {
		lut[i] = uint8(rng.Intn(256))
	}
	for _, sh := range kernelSizes {
		src := gray.New(sh.w, sh.h)
		for i := range src.Pix {
			src.Pix[i] = uint8(rng.Intn(256))
		}
		want := scalarRemap(&lut, src.Pix)
		for _, shards := range []int{0, 1, 2, 3, 7, 64} {
			got := gray.New(sh.w, sh.h)
			if err := lut.ApplyIntoShards(src, got, shards); err != nil {
				t.Fatalf("%dx%d shards=%d: %v", sh.w, sh.h, shards, err)
			}
			if string(got.Pix) != string(want) {
				t.Fatalf("%dx%d shards=%d: sharded remap differs from the scalar oracle", sh.w, sh.h, shards)
			}
		}
	}
}

func TestApplyIntoShardsErrors(t *testing.T) {
	lut := Identity()
	src := gray.New(512, 512)
	if err := lut.ApplyIntoShards(src, nil, 4); err == nil {
		t.Fatal("nil destination accepted")
	}
	if err := lut.ApplyIntoShards(src, gray.New(512, 511), 4); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}
