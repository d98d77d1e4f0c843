package main

import (
	"fmt"
	"math"

	"hebs/internal/gray"
	"hebs/internal/rng"
	"hebs/internal/sipi"
)

// frameSize is the edge of every benchmark frame (256², the paper's
// larger USC-SIPI size).
const frameSize = 256

// family is one of the sipi scene families the clips are cut from.
type family int

const (
	landscape family = iota
	portrait
	blobs
	texture
	numFamilies
)

// familyScenes lists the sipi images of each family with the size they
// are generated at. sipi's parametric generators are private to that
// package, so a family is the set of named images its generator makes;
// the seed then picks among them and re-parameterizes them per clip
// (crop, pan speed, tone curve, sensor noise, patch geometry).
var familyScenes = [numFamilies]struct {
	names []string
	w, h  int
}{
	landscape: {[]string{"autumn", "trees"}, 1024, 288},
	portrait:  {[]string{"lena", "girl", "elaine", "girlb", "pout"}, 288, 288},
	blobs:     {[]string{"peppers", "greens", "pears"}, 288, 288},
	texture:   {[]string{"baboon"}, 288, 288},
}

// scenes holds the generated base images of the families a workload
// uses; a clip is cut from them.
type scenes [numFamilies][]*gray.Image

// newScenes generates the base images of the given families.
func newScenes(fams ...family) (*scenes, error) {
	s := new(scenes)
	for _, f := range fams {
		spec := familyScenes[f]
		for _, name := range spec.names {
			img, err := sipi.Generate(name, spec.w, spec.h)
			if err != nil {
				return nil, fmt.Errorf("scene %s: %w", name, err)
			}
			s[f] = append(s[f], img)
		}
	}
	return s, nil
}

// pick returns a random base image of the family.
func (s *scenes) pick(f family, r *rng.Source) *gray.Image {
	return s[f][r.Intn(len(s[f]))]
}

// clipSource returns the random source of clip k in a run seeded with
// seed. Warm-up clips use negative k, measured clips k >= 0, so the two
// never share content.
func clipSource(seed uint64, k int) *rng.Source {
	return rng.New(mix64(seed ^ mix64(uint64(int64(k))+0x632be59bd9b4e019)))
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// toneLUT draws a random exposure: gamma in [0.8, 1.25], gain in
// [0.8, 1.1] and an offset of up to ±8% of full scale.
func toneLUT(r *rng.Source) *[256]uint8 {
	gamma := 0.8 + 0.45*r.Float64()
	gain := 0.8 + 0.3*r.Float64()
	bias := 0.16 * (r.Float64() - 0.5)
	var lut [256]uint8
	for i := range lut {
		v := math.Pow(float64(i)/255, gamma)*gain + bias
		lut[i] = uint8(math.Round(255 * math.Min(1, math.Max(0, v))))
	}
	return &lut
}

// noise adds ±1-level sensor noise to every pixel of img: each pixel
// takes two random bits, moving down on 00, up on 11.
func noise(img *gray.Image, r *rng.Source) {
	var bits uint64
	for i, v := range img.Pix {
		if i%32 == 0 {
			bits = r.Uint64()
		}
		switch bits & 3 {
		case 0:
			if v > 0 {
				img.Pix[i] = v - 1
			}
		case 3:
			if v < 255 {
				img.Pix[i] = v + 1
			}
		}
		bits >>= 2
	}
}

// crop writes the frameSize² window of base at (x0, y0) through lut into dst.
func crop(dst, base *gray.Image, x0, y0 int, lut *[256]uint8) {
	for y := 0; y < dst.H; y++ {
		src := base.Pix[(y0+y)*base.W+x0:]
		row := dst.Pix[y*dst.W : (y+1)*dst.W]
		for x := range row {
			row[x] = lut[src[x]]
		}
	}
}

// fillPan writes a pan across a random landscape into dst: the viewport
// moves 2–8 pixels per frame from a random start under a random
// exposure, and every frame carries fresh sensor noise.
func (s *scenes) fillPan(r *rng.Source, dst []*gray.Image) {
	base := s.pick(landscape, r)
	dx := 2 + r.Intn(7)
	span := frameSize + dx*(len(dst)-1)
	x0 := r.Intn(base.W - span + 1)
	y0 := r.Intn(base.H - frameSize + 1)
	lut := toneLUT(r)
	for i, f := range dst {
		crop(f, base, x0+i*dx, y0, lut)
		noise(f, r)
	}
}

// still writes a random frameSize² crop of a random scene of the family
// under a random exposure and noise into dst.
func (s *scenes) still(f family, r *rng.Source, dst *gray.Image) {
	base := s.pick(f, r)
	x0 := r.Intn(base.W - frameSize + 1)
	y0 := r.Intn(base.H - frameSize + 1)
	crop(dst, base, x0, y0, toneLUT(r))
	noise(dst, r)
}

// fillMix writes the mix-curve clip into dst (a multiple of 3 frames):
// a third pans across a landscape, a third cross-fades between two
// Blobs scenes a and b, and the last third is a hard cut from a held
// still of a to a held still of b.
func (s *scenes) fillMix(r *rng.Source, dst []*gray.Image) {
	n := len(dst) / 3
	s.fillPan(r, dst[:n])
	a, b := dst[n], dst[2*n-1]
	s.still(blobs, r, a)
	s.still(blobs, r, b)
	for i := 1; i < n-1; i++ {
		t := float64(i) / float64(n-1)
		f := dst[n+i]
		for p := range f.Pix {
			f.Pix[p] = uint8(math.Round((1-t)*float64(a.Pix[p]) + t*float64(b.Pix[p])))
		}
	}
	cut := dst[2*n:]
	for i, f := range cut {
		if i < len(cut)/2 {
			copy(f.Pix, a.Pix)
		} else {
			copy(f.Pix, b.Pix)
		}
	}
}

// fillTalk writes a talking-head clip into dst: one still portrait
// with an elliptical patch of texture (24–48 pixels across, at a random
// place) that switches between three mouth shapes every second frame,
// so every other frame is byte-identical to the one before it.
func (s *scenes) fillTalk(r *rng.Source, dst []*gray.Image) {
	s.still(portrait, r, dst[0])
	for _, f := range dst[1:] {
		copy(f.Pix, dst[0].Pix)
	}
	tex := s.pick(texture, r)
	size := 24 + r.Intn(25)
	px := r.Intn(frameSize - size + 1)
	py := r.Intn(frameSize - size + 1)
	tx := r.Intn(tex.W - size - 14)
	ty := r.Intn(tex.H - size - 10)
	phase := r.Intn(2)
	lut := toneLUT(r)
	c := float64(size-1) / 2
	for i, f := range dst {
		shape := ((i + phase) / 2) % 3
		ry := c * (0.4 + 0.3*float64(shape)) // the mouth opens in three steps
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				dx, dy := (float64(x)-c)/c, (float64(y)-c)/ry
				if dx*dx+dy*dy > 1 {
					continue
				}
				v := tex.Pix[(ty+y+5*shape)*tex.W+tx+x+7*shape]
				f.Pix[(py+y)*f.W+px+x] = lut[v] / 2
			}
		}
	}
}

// newFrames allocates n frameSize² frames.
func newFrames(n int) []*gray.Image {
	fs := make([]*gray.Image, n)
	for i := range fs {
		fs[i] = gray.New(frameSize, frameSize)
	}
	return fs
}
