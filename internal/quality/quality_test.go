package quality

import (
	"math"
	"testing"
	"testing/quick"

	"hebs/internal/gray"
	"hebs/internal/rng"
	"hebs/internal/sipi"
	"hebs/internal/transform"
)

// noisy returns a deterministic pseudo-natural test image.
func noisy(w, h int, seed uint64) *gray.Image {
	m := gray.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := rng.FBM(float64(x)/17, float64(y)/17, 4, seed)
			m.Set(x, y, uint8(v*255))
		}
	}
	return m
}

func TestMSEIdentical(t *testing.T) {
	m := noisy(32, 32, 1)
	v, err := MSE(m, m)
	if err != nil || v != 0 {
		t.Errorf("MSE(self) = %v, %v", v, err)
	}
}

func TestMSEKnown(t *testing.T) {
	a := gray.New(2, 1)
	b := gray.New(2, 1)
	a.Pix = []uint8{0, 10}
	b.Pix = []uint8{3, 14}
	v, err := MSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v != (9.0+16.0)/2 {
		t.Errorf("MSE = %v, want 12.5", v)
	}
}

func TestMSEShapeMismatch(t *testing.T) {
	if _, err := MSE(gray.New(2, 2), gray.New(3, 2)); err == nil {
		t.Error("shape mismatch should error")
	}
	if _, err := MSE(nil, gray.New(1, 1)); err == nil {
		t.Error("nil image should error")
	}
}

func TestPSNR(t *testing.T) {
	m := noisy(16, 16, 2)
	v, err := PSNR(m, m)
	if err != nil || !math.IsInf(v, 1) {
		t.Errorf("PSNR(self) = %v, %v; want +Inf", v, err)
	}
	o := m.Map(func(p uint8) uint8 {
		if p < 250 {
			return p + 5
		}
		return p
	})
	v, err = PSNR(m, o)
	if err != nil {
		t.Fatal(err)
	}
	// MSE ~25 -> PSNR ~34 dB.
	if v < 30 || v > 40 {
		t.Errorf("PSNR of +5 shift = %v dB, want ~34", v)
	}
}

func TestUQIIdentical(t *testing.T) {
	m := noisy(64, 64, 3)
	q, err := UQI(m, m, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-1) > 1e-9 {
		t.Errorf("UQI(self) = %v, want 1", q)
	}
}

func TestUQIRange(t *testing.T) {
	a := noisy(64, 64, 4)
	b := noisy(64, 64, 5)
	q, err := UQI(a, b, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if q < -1-1e-9 || q > 1+1e-9 {
		t.Errorf("UQI out of [-1,1]: %v", q)
	}
	if q > 0.9 {
		t.Errorf("UQI of unrelated images = %v, want well below 1", q)
	}
}

func TestUQISymmetry(t *testing.T) {
	a := noisy(48, 48, 6)
	b := noisy(48, 48, 7)
	q1, _ := UQI(a, b, UQIOptions{})
	q2, _ := UQI(b, a, UQIOptions{})
	if math.Abs(q1-q2) > 1e-12 {
		t.Errorf("UQI not symmetric: %v vs %v", q1, q2)
	}
}

func TestUQIInvertedWorse(t *testing.T) {
	a := noisy(64, 64, 8)
	inv := a.Map(func(p uint8) uint8 { return 255 - p })
	qInv, _ := UQI(a, inv, UQIOptions{})
	shift := a.Map(func(p uint8) uint8 {
		if p > 245 {
			return 255
		}
		return p + 10
	})
	qShift, _ := UQI(a, shift, UQIOptions{})
	if qInv >= qShift {
		t.Errorf("inversion (%v) should score below small shift (%v)", qInv, qShift)
	}
	if qInv >= 0 {
		t.Errorf("inversion should have negative structure: %v", qInv)
	}
}

func TestUQIDegradesWithDistortion(t *testing.T) {
	a := noisy(64, 64, 9)
	prev := 1.0
	for _, amp := range []int{4, 16, 48} {
		b := a.Clone()
		s := rng.New(uint64(amp))
		for i := range b.Pix {
			d := s.Intn(2*amp+1) - amp
			v := int(b.Pix[i]) + d
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			b.Pix[i] = uint8(v)
		}
		q, err := UQI(a, b, UQIOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if q >= prev {
			t.Errorf("UQI did not decrease with noise amplitude %d: %v >= %v", amp, q, prev)
		}
		prev = q
	}
}

func TestUQIFlatImages(t *testing.T) {
	a := gray.New(16, 16)
	b := gray.New(16, 16)
	// Both all-black: identical -> 1.
	q, err := UQI(a, b, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Errorf("UQI(black, black) = %v, want 1", q)
	}
	// Flat gray vs flat brighter gray: luminance term only.
	a.Fill(100)
	b.Fill(200)
	q, _ = UQI(a, b, UQIOptions{})
	want := 2.0 * 100 * 200 / (100.0*100 + 200.0*200)
	if math.Abs(q-want) > 1e-9 {
		t.Errorf("UQI(flat100, flat200) = %v, want %v", q, want)
	}
}

func TestUQITinyImageFallback(t *testing.T) {
	a := gray.New(3, 3)
	a.Fill(50)
	q, err := UQI(a, a, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Errorf("tiny image UQI(self) = %v, want 1", q)
	}
}

func TestUQIBadOptions(t *testing.T) {
	m := gray.New(16, 16)
	if _, err := UQI(m, m, UQIOptions{Window: -1}); err == nil {
		t.Error("negative window should error")
	}
	if _, err := UQI(m, m, UQIOptions{Step: -2}); err == nil {
		t.Error("negative step should error")
	}
}

func TestUQIBlockModeMatchesSlidingOnUniformStats(t *testing.T) {
	// For a self-comparison both modes must give exactly 1.
	m := noisy(64, 64, 10)
	q1, _ := UQI(m, m, UQIOptions{Step: 1})
	q2, _ := UQI(m, m, UQIOptions{Step: DefaultWindow})
	if q1 != 1 || q2 != 1 {
		t.Errorf("self UQI block/sliding = %v/%v, want 1/1", q2, q1)
	}
}

func TestSSIMIdenticalAndRange(t *testing.T) {
	m := noisy(64, 64, 11)
	s, err := SSIM(m, m, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("SSIM(self) = %v, want 1", s)
	}
	b := noisy(64, 64, 12)
	s, _ = SSIM(m, b, UQIOptions{})
	if s < -1 || s > 1 {
		t.Errorf("SSIM out of range: %v", s)
	}
}

func TestSSIMMoreStableThanUQIOnFlats(t *testing.T) {
	// SSIM's constants keep flat regions from blowing up; a tiny
	// perturbation of a flat image should stay close to 1.
	a := gray.New(32, 32)
	a.Fill(128)
	b := a.Clone()
	b.Set(0, 0, 129)
	s, err := SSIM(a, b, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.99 {
		t.Errorf("SSIM of near-identical flats = %v, want ~1", s)
	}
}

func TestSSIMShapeMismatch(t *testing.T) {
	if _, err := SSIM(gray.New(8, 8), gray.New(9, 8), UQIOptions{}); err == nil {
		t.Error("shape mismatch should error")
	}
}

func TestDistortionPercent(t *testing.T) {
	if d := DistortionPercent(1); d != 0 {
		t.Errorf("D(1) = %v, want 0", d)
	}
	if d := DistortionPercent(0.9); math.Abs(d-10) > 1e-9 {
		t.Errorf("D(0.9) = %v, want 10", d)
	}
	if d := DistortionPercent(-1); d != 200 {
		t.Errorf("D(-1) = %v, want 200", d)
	}
	if d := DistortionPercent(1.5); d != 0 {
		t.Errorf("D(1.5) = %v, want clamp 0", d)
	}
	if d := DistortionPercent(-2); d != 200 {
		t.Errorf("D(-2) = %v, want clamp 200", d)
	}
}

func TestUQIDistortion(t *testing.T) {
	m := noisy(32, 32, 13)
	d, err := UQIDistortion(m, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d) > 1e-6 {
		t.Errorf("distortion(self) = %v, want 0", d)
	}
}

func TestSaturatedPercent(t *testing.T) {
	m := gray.New(10, 1)
	for i := range m.Pix {
		m.Pix[i] = uint8(i * 25) // 0,25,...,225
	}
	p, err := SaturatedPercent(m, 50, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Outside [50,200]: 0,25 and 225 -> 3 of 10.
	if p != 30 {
		t.Errorf("saturated%% = %v, want 30", p)
	}
	if _, err := SaturatedPercent(m, 200, 50); err == nil {
		t.Error("inverted band should error")
	}
	if _, err := SaturatedPercent(nil, 0, 255); err == nil {
		t.Error("nil image should error")
	}
}

func TestSaturatedPercentFullBand(t *testing.T) {
	m := noisy(16, 16, 14)
	p, err := SaturatedPercent(m, 0, 255)
	if err != nil || p != 0 {
		t.Errorf("full band saturated%% = %v, %v; want 0", p, err)
	}
}

// windowMoments accumulates the first and second moments of an
// aligned pair of windows, one pixel at a time — the naive oracle's
// accumulator. Every sum is an integer below 2^53, so the float64
// accumulation is exact.
type windowMoments struct {
	n            float64
	sumX, sumY   float64
	sumXX, sumYY float64
	sumXY        float64
}

func (m *windowMoments) add(x, y float64) {
	m.n++
	m.sumX += x
	m.sumY += y
	m.sumXX += x * x
	m.sumYY += y * y
	m.sumXY += x * y
}

// uqiWindow is the Q index of one window with Wang & Bovik's
// degenerate-case handling, written out separately from the kernel's
// inlined copy.
func uqiWindow(m *windowMoments) float64 {
	mx := m.sumX / m.n
	my := m.sumY / m.n
	vx := m.sumXX/m.n - mx*mx
	vy := m.sumYY/m.n - my*my
	cov := m.sumXY/m.n - mx*my
	if vx < 0 {
		vx = 0
	}
	if vy < 0 {
		vy = 0
	}
	d1 := vx + vy
	d2 := mx*mx + my*my
	switch {
	case d1 < 1e-12 && d2 < 1e-12:
		return 1
	case d1 < 1e-12:
		return 2 * mx * my / d2
	case d2 < 1e-12:
		return 2 * cov / d1
	default:
		return 4 * cov * mx * my / (d1 * d2)
	}
}

// uqiNaive recomputes UQI with direct per-window accumulation — the
// reference the rolling-window walk must match bit for bit.
func uqiNaive(a, b *gray.Image, win, step int) float64 {
	total := 0.0
	count := 0
	for y := 0; y+win <= a.H; y += step {
		for x := 0; x+win <= a.W; x += step {
			var m windowMoments
			for dy := 0; dy < win; dy++ {
				row := (y + dy) * a.W
				for dx := 0; dx < win; dx++ {
					i := row + x + dx
					m.add(float64(a.Pix[i]), float64(b.Pix[i]))
				}
			}
			total += uqiWindow(&m)
			count++
		}
	}
	return total / float64(count)
}

func TestUQIWalkMatchesNaive(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		a := noisy(40, 33, seed*2+1)
		b := noisy(40, 33, seed*2+2)
		for _, cfg := range []UQIOptions{{Window: 8, Step: 1}, {Window: 8, Step: 8}, {Window: 5, Step: 3}, {Window: 1, Step: 1}, {Window: 4, Step: 9}} {
			got, err := UQI(a, b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := uqiNaive(a, b, cfg.Window, cfg.Step)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("seed %d cfg %+v: walk UQI %v != naive %v", seed, cfg, got, want)
			}
		}
	}
}

func TestUQIWalkMatchesNaiveExtremes(t *testing.T) {
	// All-white vs all-black: the largest possible sums, checking the
	// rolling sums don't overflow or lose precision.
	a := gray.New(64, 64)
	a.Fill(255)
	b := gray.New(64, 64)
	got, err := UQI(a, b, UQIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := uqiNaive(a, b, DefaultWindow, 1)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("extreme walk UQI %v != naive %v", got, want)
	}
}

// TestWalkMomentsProperty: at every band the walk stops on, the integer
// sums of any window equal its direct accumulation — for the image
// pair and for an image against its LUT.
func TestWalkMomentsProperty(t *testing.T) {
	a := noisy(30, 20, 91)
	b := noisy(30, 20, 92)
	var lut [256]uint8
	for v := range lut {
		lut[v] = uint8(v*7 + 3) // non-monotone
	}
	f := func(xr, yr, wr, sr uint8, useLUT bool) bool {
		win := int(wr)%10 + 1
		step := int(sr)%(2*win) + 1
		x := int(xr) % (30 - win + 1)
		band := int(yr) % ((20-win)/step + 1)
		k := walkPool.Get().(*windowWalk)
		defer k.release()
		if useLUT {
			k.setLUT(a.Pix, &lut)
		} else {
			k.a, k.b = a.Pix, b.Pix
		}
		k.start(a.W, a.H, win, step)
		for i := 0; i <= band; i++ {
			if !k.next() {
				return false
			}
		}
		y := band * step
		var want moments
		for dy := 0; dy < win; dy++ {
			for dx := 0; dx < win; dx++ {
				i := (y+dy)*a.W + x + dx
				xv, yv := int64(a.Pix[i]), int64(b.Pix[i])
				if useLUT {
					yv = int64(lut[a.Pix[i]])
				}
				want.x += xv
				want.y += yv
				want.xx += xv * xv
				want.yy += yv * yv
				want.xy += xv * yv
			}
		}
		lo, hi := k.prefix[x], k.prefix[x+win]
		got := moments{hi.x - lo.x, hi.y - lo.y, hi.xx - lo.xx, hi.yy - lo.yy, hi.xy - lo.xy}
		return k.top == y && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// uqiLUTApplied is UQILUT's reference: materialize lut[img], then run
// the two-image UQI.
func uqiLUTApplied(t testing.TB, img *gray.Image, lut *[256]uint8, opts UQIOptions) float64 {
	t.Helper()
	applied := img.Map(func(p uint8) uint8 { return lut[p] })
	q, err := UQI(img, applied, opts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestUQILUTMatchesApplied: scoring a reconstruction LUT directly is
// bit-identical to scoring the reconstructed image, for every target
// range the exact search can probe, on the benchmark suite and on
// geometries that stress the walk's edges (sides not divisible by the
// window, images smaller than it, strides that skip rows).
func TestUQILUTMatchesApplied(t *testing.T) {
	suite, err := sipi.Suite(256, 256)
	if err != nil {
		t.Fatal(err)
	}
	odd := noisy(37, 29, 5)
	tiny := noisy(5, 3, 6)
	for r := 2; r <= transform.Levels-1; r++ {
		lut, err := transform.ScaleToRange(0, uint8(r))
		if err != nil {
			t.Fatal(err)
		}
		recon, err := lut.Reconstruction()
		if err != nil {
			t.Fatal(err)
		}
		table := (*[256]uint8)(recon)
		check := func(name string, img *gray.Image, opts UQIOptions) {
			got, err := UQILUT(img, table, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := uqiLUTApplied(t, img, table, opts)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s R=%d %+v: UQILUT %v != UQI on the applied image %v", name, r, opts, got, want)
			}
		}
		for _, ni := range suite {
			check(ni.Name, ni.Image, UQIOptions{})
		}
		for _, step := range []int{1, 3, 8} {
			check("odd", odd, UQIOptions{Step: step})
			check("tiny", tiny, UQIOptions{Step: step})
		}
	}
}

func TestUQILUTRejectsBadInput(t *testing.T) {
	var lut [256]uint8
	if _, err := UQILUT(nil, &lut, UQIOptions{}); err == nil {
		t.Error("nil image should error")
	}
	if _, err := UQILUT(gray.New(8, 8), nil, UQIOptions{}); err == nil {
		t.Error("nil LUT should error")
	}
	if _, err := UQILUT(gray.New(8, 8), &lut, UQIOptions{Step: -1}); err == nil {
		t.Error("negative step should error")
	}
	// An empty image has no window; the walk must refuse it rather
	// than loop on a zero stride.
	if _, err := UQILUT(&gray.Image{}, &lut, UQIOptions{}); err == nil {
		t.Error("empty image should error")
	}
	if _, err := UQI(&gray.Image{}, &gray.Image{}, UQIOptions{}); err == nil {
		t.Error("empty image pair should error")
	}
}

// FuzzUQILUT draws a geometry, pixels, an arbitrary (non-monotone)
// LUT, a window and a stride, and requires UQILUT, UQI on the applied
// image and the naive per-window oracle to agree bit for bit.
func FuzzUQILUT(f *testing.F) {
	f.Add([]byte{0, 128, 255}, []byte{}, uint8(47), uint8(47), uint8(7), uint8(0))
	f.Add([]byte{9, 200, 3, 77}, []byte{255, 0}, uint8(36), uint8(28), uint8(4), uint8(2))
	f.Add([]byte{}, []byte{1, 2, 3}, uint8(0), uint8(5), uint8(11), uint8(8))
	f.Fuzz(func(t *testing.T, pix, lutBytes []byte, w8, h8, win8, step8 uint8) {
		w := 1 + int(w8)%48
		h := 1 + int(h8)%48
		img := gray.New(w, h)
		for i := range img.Pix {
			if len(pix) > 0 {
				img.Pix[i] = pix[i%len(pix)] ^ uint8(i*13)
			} else {
				img.Pix[i] = uint8(i * 31)
			}
		}
		var lut [256]uint8
		for v := range lut {
			if len(lutBytes) > 0 {
				lut[v] = lutBytes[v%len(lutBytes)] + uint8(v/len(lutBytes))
			} else {
				lut[v] = uint8(v)
			}
		}
		opts := UQIOptions{Window: 1 + int(win8)%16, Step: 1 + int(step8)%12}
		got, err := UQILUT(img, &lut, opts)
		if err != nil {
			t.Fatal(err)
		}
		applied := img.Map(func(p uint8) uint8 { return lut[p] })
		pair, err := UQI(img, applied, opts)
		if err != nil {
			t.Fatal(err)
		}
		norm, err := opts.normalized(w, h)
		if err != nil {
			t.Fatal(err)
		}
		naive := uqiNaive(img, applied, norm.Window, norm.Step)
		if math.Float64bits(got) != math.Float64bits(pair) || math.Float64bits(got) != math.Float64bits(naive) {
			t.Fatalf("%dx%d %+v: UQILUT %v, UQI %v, naive %v", w, h, opts, got, pair, naive)
		}
	})
}

func BenchmarkUQI(b *testing.B) {
	x := noisy(256, 256, 1)
	y := noisy(256, 256, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UQI(x, y, UQIOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUQILUT scores one exact-search probe: a 256² frame against
// the reconstruction LUT of linear compression to R = 128.
func BenchmarkUQILUT(b *testing.B) {
	x := noisy(256, 256, 1)
	lut, err := transform.ScaleToRange(0, 128)
	if err != nil {
		b.Fatal(err)
	}
	recon, err := lut.Reconstruction()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UQILUT(x, (*[256]uint8)(recon), UQIOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUQISlidingNaive(b *testing.B) {
	x := noisy(128, 128, 1)
	y := noisy(128, 128, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uqiNaive(x, y, DefaultWindow, 1)
	}
}

func TestUQIDistortionGrowsAsBandShrinks(t *testing.T) {
	// Compressing an image into a narrower band then re-expanding loses
	// levels; UQI distortion should grow monotonically with compression.
	m := noisy(64, 64, 16)
	prev := -1.0
	for _, r := range []int{220, 150, 80} {
		scale := float64(r) / 255
		comp := m.Map(func(p uint8) uint8 { return uint8(float64(p) * scale) })
		exp := comp.Map(func(p uint8) uint8 {
			v := math.Round(float64(p) / scale)
			if v > 255 {
				v = 255
			}
			return uint8(v)
		})
		d, err := UQIDistortion(m, exp)
		if err != nil {
			t.Fatal(err)
		}
		if d < prev {
			t.Errorf("distortion at range %d = %v, want >= %v", r, d, prev)
		}
		prev = d
	}
}
