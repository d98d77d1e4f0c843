// The rolling-window walk behind UQI, UQILUT, SSIM and MS-SSIM's
// per-scale components. Every window statistic these indices need is
// a function of five sums over the window: Σx, Σy, Σx², Σy² and Σx·y.
// The walk keeps those sums per column over the current band of win
// rows, slides the band down step rows at a time (subtracting the rows
// that leave, adding the rows that enter), and turns each band into a
// running prefix across the row, so a window's sums are one
// subtraction per moment. Pixel values are at most 255, so every sum
// is an exact int64 — equal to the direct per-window accumulation, on
// every geometry, window and step.
package quality

import (
	"errors"
	"sync"

	"hebs/internal/gray"
)

// errNilImage is returned for a nil image or LUT (a sentinel, so the
// allocation-free kernels can return it).
var errNilImage = errors.New("quality: nil image")

// moments is the five window sums of one column, band prefix or
// window.
type moments struct {
	x, y, xx, yy, xy int64
}

// levelMoments is what one source level v contributes under a LUT L:
// y = L[v], y² and x·y = v·L[v].
type levelMoments struct {
	y, yy, xy int64
}

// windowWalk holds the walk's state: the source pair (two images, or
// one image and its LUT's level table), the geometry and the band's
// column sums and row prefix. Walks are pooled; the buffers only ever
// grow, so alternating zone-sized and frame-sized evaluations reuse
// one allocation.
type windowWalk struct {
	a, b   []uint8 // b is nil when the second image is lut[a]
	lvl    [256]levelMoments
	w, h   int
	win    int
	step   int
	n      float64   // pixels per window, win²
	inv    float64   // 1/n when n is a power of two, else 0
	top    int       // first row of the current band; -1 before the first
	col    []moments // column sums over the band, len w
	prefix []moments // prefix[x] sums col[0:x], len w+1
	buf    []moments // backs col and prefix
}

var walkPool = sync.Pool{New: func() any { return new(windowWalk) }}

// release drops the walk's source references and returns it to the
// pool.
func (k *windowWalk) release() {
	k.a, k.b = nil, nil
	walkPool.Put(k)
}

// start readies the walk over a w×h source for win×win windows at the
// given stride; next then yields each row of windows in turn.
//
//hebs:noalloc
func (k *windowWalk) start(w, h, win, step int) {
	k.w, k.h, k.win, k.step = w, h, win, step
	k.n, k.inv = float64(win*win), 0
	if win*win&(win*win-1) == 0 {
		k.inv = 1 / k.n
	}
	k.top = -1
	if cap(k.buf) < 2*w+1 {
		//hebs:noalloc-allow buffer growth on the first wider image; amortized to zero in steady state
		k.buf = make([]moments, 2*w+1)
	}
	k.col = k.buf[:w]
	k.prefix = k.buf[w : 2*w+1]
	k.prefix[0] = moments{}
}

// setLUT fills the level table for a walk of img against lut[img].
//
//hebs:noalloc
func (k *windowWalk) setLUT(img []uint8, lut *[256]uint8) {
	k.a, k.b = img, nil
	for v := range k.lvl {
		x, y := int64(v), int64(lut[v])
		k.lvl[v] = levelMoments{y: y, yy: y * y, xy: x * y}
	}
}

// next moves the band to the next row of windows and rebuilds the row
// prefix; it reports false once the band would leave the image. After
// a true return, window(x) is the sums of the window at column x.
//
//hebs:noalloc
func (k *windowWalk) next() bool {
	top := 0
	if k.top >= 0 {
		top = k.top + k.step
	}
	if top+k.win > k.h {
		return false
	}
	if k.top < 0 || k.step >= k.win {
		clear(k.col)
		for r := top; r < top+k.win; r++ {
			k.addRow(r)
		}
	} else {
		for r := k.top; r < top; r++ {
			k.slideRow(r, r+k.win)
		}
	}
	k.top = top
	// Scalar accumulators stored field by field: a struct-valued store
	// is staged on the stack and stalls on store-to-load forwarding.
	var sx, sy, sxx, syy, sxy int64
	prefix := k.prefix[1 : len(k.col)+1]
	for x := range k.col {
		c, p := &k.col[x], &prefix[x]
		sx += c.x
		sy += c.y
		sxx += c.xx
		syy += c.yy
		sxy += c.xy
		p.x, p.y, p.xx, p.yy, p.xy = sx, sy, sxx, syy, sxy
	}
	return true
}

// window returns the five sums of the band's window at column x.
func (k *windowWalk) window(x int) (sx, sy, sxx, syy, sxy float64) {
	lo, hi := &k.prefix[x], &k.prefix[x+k.win]
	return float64(hi.x - lo.x), float64(hi.y - lo.y),
		float64(hi.xx - lo.xx), float64(hi.yy - lo.yy), float64(hi.xy - lo.xy)
}

// means turns a window's sums into its moments — the means of x, y,
// x², y² and x·y — dividing each sum by n = win². When n is a power of
// two the division is a multiplication by the exact reciprocal, which
// rounds identically.
func (k *windowWalk) means(sx, sy, sxx, syy, sxy float64) (mx, my, mxx, myy, mxy float64) {
	if inv := k.inv; inv != 0 {
		return sx * inv, sy * inv, sxx * inv, syy * inv, sxy * inv
	}
	n := k.n
	return sx / n, sy / n, sxx / n, syy / n, sxy / n
}

// addRow adds source row r to the column sums.
//
//hebs:noalloc
func (k *windowWalk) addRow(r int) {
	col := k.col
	in := k.a[r*k.w : r*k.w+len(col)]
	if k.b == nil {
		for x, v := range in {
			xi, l := int64(v), &k.lvl[v]
			c := &col[x]
			c.x += xi
			c.y += l.y
			c.xx += xi * xi
			c.yy += l.yy
			c.xy += l.xy
		}
		return
	}
	inB := k.b[r*k.w : r*k.w+len(col)]
	for x, v := range in {
		xi, yi := int64(v), int64(inB[x])
		c := &col[x]
		c.x += xi
		c.y += yi
		c.xx += xi * xi
		c.yy += yi * yi
		c.xy += xi * yi
	}
}

// slideRow moves the column sums one row down: source row out leaves
// the band and row in enters it.
//
//hebs:noalloc
func (k *windowWalk) slideRow(out, in int) {
	col := k.col
	ao := k.a[out*k.w : out*k.w+len(col)]
	ai := k.a[in*k.w : in*k.w+len(col)]
	if k.b == nil {
		for x, vi := range ai {
			vo := ao[x]
			xi, xo := int64(vi), int64(vo)
			li, lo := &k.lvl[vi], &k.lvl[vo]
			c := &col[x]
			c.x += xi - xo
			c.y += li.y - lo.y
			c.xx += xi*xi - xo*xo
			c.yy += li.yy - lo.yy
			c.xy += li.xy - lo.xy
		}
		return
	}
	bo := k.b[out*k.w : out*k.w+len(col)]
	bi := k.b[in*k.w : in*k.w+len(col)]
	for x, v := range ai {
		xi, xo := int64(v), int64(ao[x])
		yi, yo := int64(bi[x]), int64(bo[x])
		c := &col[x]
		c.x += xi - xo
		c.y += yi - yo
		c.xx += xi*xi - xo*xo
		c.yy += yi*yi - yo*yo
		c.xy += xi*yi - xo*yo
	}
}

// pairWalk draws a walk over the image pair (a, b) with normalized
// options from the pool; the caller returns it with release.
func pairWalk(a, b *gray.Image, opts UQIOptions) (*windowWalk, error) {
	if err := checkPair(a, b); err != nil {
		return nil, err
	}
	opts, err := opts.normalized(a.W, a.H)
	if err != nil {
		return nil, err
	}
	k := walkPool.Get().(*windowWalk)
	k.a, k.b = a.Pix, b.Pix
	k.start(a.W, a.H, opts.Window, opts.Step)
	return k, nil
}
