// Package quality implements the image-distortion measures used in the
// paper and its baselines:
//
//   - the Universal Image Quality Index (UQI) of Wang & Bovik (ref. [8]
//     of the paper), the measure HEBS adopts because it combines pixel
//     differences with luminance/contrast/structure terms modeling the
//     human visual system;
//   - SSIM (ref. [6]), evaluated as the paper's stated future work;
//   - plain MSE / PSNR for calibration;
//   - the saturated-pixel percentage used by DLS [4]; and
//   - the in-band pixel-preservation ("contrast fidelity") measure of
//     CBCS [5].
//
// Distortion values are reported on the paper's percentage scale:
// D = (1 − Q) × 100 for the indices Q in [−1, 1].
package quality

import (
	"errors"
	"fmt"
	"math"

	"hebs/internal/gray"
)

// DefaultWindow is the sliding-window size for UQI/SSIM. Wang & Bovik's
// reference implementation uses 8×8 for UQI.
const DefaultWindow = 8

// ErrShapeMismatch is returned when two images have different sizes.
var ErrShapeMismatch = errors.New("quality: image shapes differ")

func checkPair(a, b *gray.Image) error {
	if a == nil || b == nil {
		return errNilImage
	}
	if a.W != b.W || a.H != b.H {
		return fmt.Errorf("%w: %dx%d vs %dx%d", ErrShapeMismatch, a.W, a.H, b.W, b.H)
	}
	return nil
}

// MSE returns the mean squared error between two images in squared
// 8-bit level units.
func MSE(a, b *gray.Image) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	s := 0.0
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		s += d * d
	}
	return s / float64(len(a.Pix)), nil
}

// PSNR returns the peak signal-to-noise ratio in dB. Identical images
// yield +Inf.
func PSNR(a, b *gray.Image) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255.0*255.0/mse), nil
}

// UQIOptions configures the UQI/SSIM computation.
type UQIOptions struct {
	// Window is the square window size (default DefaultWindow).
	Window int
	// Step is the window stride. 1 gives the fully sliding window of the
	// reference implementation; Window gives non-overlapping blocks.
	// Default 1.
	Step int
}

func (o UQIOptions) normalized(w, h int) (UQIOptions, error) {
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.Step == 0 {
		o.Step = 1
	}
	if o.Window < 1 || o.Step < 1 || w < 1 || h < 1 {
		return o, fmt.Errorf("quality: bad options %+v for a %dx%d image", o, w, h)
	}
	if o.Window > w || o.Window > h {
		// Fall back to a single whole-image window for tiny images.
		o.Window = minInt(w, h)
		o.Step = o.Window
	}
	return o, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// UQI returns the Universal Image Quality Index between two images,
// averaged over sliding windows. The result lies in [-1, 1], with 1 for
// identical images. Window moments come from the rolling-window walk,
// so the cost is O(pixels + windows) rather than
// O(windows × window area).
func UQI(a, b *gray.Image, opts UQIOptions) (float64, error) {
	k, err := pairWalk(a, b, opts)
	if err != nil {
		return 0, err
	}
	defer k.release()
	return k.uqi(), nil
}

// UQILUT returns UQI(img, lut[img]) — the index between img and its
// remap through lut — without materializing the remapped image: the
// walk reads each level's remapped value, its square and its product
// with the level from a 256-entry table. Bit-identical to UQI on the
// applied image for every input.
//
//hebs:noalloc
func UQILUT(img *gray.Image, lut *[256]uint8, opts UQIOptions) (float64, error) {
	if img == nil || lut == nil {
		return 0, errNilImage
	}
	opts, err := opts.normalized(img.W, img.H)
	if err != nil {
		return 0, err
	}
	k := walkPool.Get().(*windowWalk)
	defer k.release()
	k.setLUT(img.Pix, lut)
	k.start(img.W, img.H, opts.Window, opts.Step)
	return k.uqi(), nil
}

// uqi is the UQI window loop over a started walk: the Q index of each
// window, following the degenerate-case handling of Wang & Bovik's
// reference implementation, averaged over all windows.
//
//hebs:noalloc
func (k *windowWalk) uqi() float64 {
	win, step := k.win, k.step
	total := 0.0
	count := 0
	for k.next() {
		for x := 0; x+win <= k.w; x += step {
			mx, my, mxx, myy, mxy := k.means(k.window(x))
			vx := mxx - mx*mx
			vy := myy - my*my
			cov := mxy - mx*my
			// Guard tiny negatives from float cancellation.
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
				// Both windows uniformly black: identical.
				total += 1
			case d1 < 1e-12:
				// Both windows flat: only the luminance term is defined.
				total += 2 * mx * my / d2
			case d2 < 1e-12:
				// Zero mean energy but nonzero variance cannot occur
				// for non-negative pixels; defensively use the
				// contrast/structure product.
				total += 2 * cov / d1
			default:
				total += 4 * cov * mx * my / (d1 * d2)
			}
			count++
		}
	}
	return total / float64(count)
}

// SSIM returns the Structural Similarity index with the standard
// stabilizing constants C1=(0.01·L)², C2=(0.03·L)², L=255, averaged over
// the same uniform sliding windows as UQI. (The original SSIM paper uses
// an 11×11 Gaussian window; the uniform window preserves the index's
// behaviour for the backlight-scaling comparisons made here and is what
// UQI itself uses.)
func SSIM(a, b *gray.Image, opts UQIOptions) (float64, error) {
	k, err := pairWalk(a, b, opts)
	if err != nil {
		return 0, err
	}
	defer k.release()
	win, step := k.win, k.step
	total := 0.0
	count := 0
	for k.next() {
		for x := 0; x+win <= k.w; x += step {
			mx, my, mxx, myy, mxy := k.means(k.window(x))
			vx := mxx - mx*mx
			vy := myy - my*my
			cov := mxy - mx*my
			if vx < 0 {
				vx = 0
			}
			if vy < 0 {
				vy = 0
			}
			num := (2*mx*my + ssimC1) * (2*cov + ssimC2)
			den := (mx*mx + my*my + ssimC1) * (vx + vy + ssimC2)
			total += num / den
			count++
		}
	}
	return total / float64(count), nil
}

// SSIM's stabilizing constants C1=(0.01·L)², C2=(0.03·L)², L=255.
const (
	ssimC1 = (0.01 * 255) * (0.01 * 255)
	ssimC2 = (0.03 * 255) * (0.03 * 255)
)

// DistortionPercent converts a quality index Q in [-1,1] to the paper's
// percentage distortion scale D = (1-Q)·100, clamped to [0, 200].
func DistortionPercent(q float64) float64 {
	d := (1 - q) * 100
	if d < 0 {
		return 0
	}
	if d > 200 {
		return 200
	}
	return d
}

// UQIDistortion is shorthand for DistortionPercent(UQI(a, b)) with
// default options — the paper's distortion measure D(F, F′).
func UQIDistortion(a, b *gray.Image) (float64, error) {
	q, err := UQI(a, b, UQIOptions{})
	if err != nil {
		return 0, err
	}
	return DistortionPercent(q), nil
}

// SaturatedPercent returns the percentage of pixels lying outside the
// band [lo, hi] — the image-distortion measure of DLS [4] (pixels that
// saturate after brightness/contrast compensation) and the truncation
// loss of CBCS [5].
func SaturatedPercent(img *gray.Image, lo, hi uint8) (float64, error) {
	if img == nil {
		return 0, errNilImage
	}
	if lo > hi {
		return 0, fmt.Errorf("quality: inverted band [%d,%d]", lo, hi)
	}
	out := 0
	for _, p := range img.Pix {
		if p < lo || p > hi {
			out++
		}
	}
	return 100 * float64(out) / float64(len(img.Pix)), nil
}
