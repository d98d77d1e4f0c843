package transform

import (
	"testing"

	"hebs/internal/gray"
)

// TestApplyIntoPackedMatchesScalar: Apply, ApplyInto and
// ApplyIntoPacked must be byte-identical to the scalar oracle on every
// geometry, including pixel counts not divisible by 8 where the packed
// kernel's scalar tail runs.
func TestApplyIntoPackedMatchesScalar(t *testing.T) {
	var lut LUT
	for i := range lut {
		lut[i] = uint8((i * 201) % Levels)
	}
	sizes := append([]struct{ w, h int }{{8, 8}, {17, 3}, {64, 48}, {100, 33}}, kernelSizes...)
	for _, g := range sizes {
		src := gray.New(g.w, g.h)
		for i := range src.Pix {
			src.Pix[i] = uint8(i*53 + 11)
		}
		want := scalarRemap(&lut, src.Pix)
		into, packed := gray.New(g.w, g.h), gray.New(g.w, g.h)
		if err := lut.ApplyInto(src, into); err != nil {
			t.Fatal(err)
		}
		if err := lut.ApplyIntoPacked(src, packed); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*gray.Image{"Apply": lut.Apply(src), "ApplyInto": into, "ApplyIntoPacked": packed} {
			if string(got.Pix) != string(want) {
				t.Fatalf("%dx%d: %s differs from the scalar oracle", g.w, g.h, name)
			}
		}
	}
}

// TestApplyIntoPackedErrors mirrors ApplyInto's validation surface.
func TestApplyIntoPackedErrors(t *testing.T) {
	var lut LUT
	if err := lut.ApplyIntoPacked(nil, gray.New(4, 4)); err == nil {
		t.Error("nil src accepted")
	}
	if err := lut.ApplyIntoPacked(gray.New(4, 4), nil); err == nil {
		t.Error("nil dst accepted")
	}
	if err := lut.ApplyIntoPacked(gray.New(4, 4), gray.New(4, 5)); err == nil {
		t.Error("geometry mismatch accepted")
	}
}
