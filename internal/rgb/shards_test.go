package rgb

import (
	"math/rand"
	"testing"

	"hebs/internal/transform"
)

// TestApplyLUTIntoShardsEqualsSerial: ApplyLUT, ApplyLUTInto and the
// sharded color remap are byte-equal to a plain per-byte loop over the
// interleaved plane, across frame sizes on both sides of the 32K-byte
// work floor (byte counts not divisible by 8, up to seven shards with
// mid-word band bounds) and across shard counts.
func TestApplyLUTIntoShardsEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var lut transform.LUT
	for i := range lut {
		lut[i] = uint8(rng.Intn(256))
	}
	for _, sh := range []struct{ w, h int }{{1, 1}, {13, 7}, {105, 104}, {111, 101}, {203, 377}} {
		src := New(sh.w, sh.h)
		for i := range src.Pix {
			src.Pix[i] = uint8(rng.Intn(256))
		}
		want := make([]uint8, len(src.Pix))
		for i := range src.Pix {
			want[i] = lut[src.Pix[i]]
		}
		if got := src.ApplyLUT(&lut); string(got.Pix) != string(want) {
			t.Fatalf("%dx%d: ApplyLUT differs from the scalar oracle", sh.w, sh.h)
		}
		into := New(sh.w, sh.h)
		if err := src.ApplyLUTInto(&lut, into); err != nil {
			t.Fatal(err)
		}
		if string(into.Pix) != string(want) {
			t.Fatalf("%dx%d: ApplyLUTInto differs from the scalar oracle", sh.w, sh.h)
		}
		for _, shards := range []int{0, 1, 2, 3, 7, 64} {
			got := New(sh.w, sh.h)
			if err := src.ApplyLUTIntoShards(&lut, got, shards); err != nil {
				t.Fatalf("%dx%d shards=%d: %v", sh.w, sh.h, shards, err)
			}
			if string(got.Pix) != string(want) {
				t.Fatalf("%dx%d shards=%d: sharded remap differs from the scalar oracle", sh.w, sh.h, shards)
			}
		}
	}
}

func TestApplyLUTIntoShardsErrors(t *testing.T) {
	lut := transform.Identity()
	src := New(256, 256)
	if err := src.ApplyLUTIntoShards(lut, nil, 4); err == nil {
		t.Fatal("nil destination accepted")
	}
	if err := src.ApplyLUTIntoShards(lut, New(256, 255), 4); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}
