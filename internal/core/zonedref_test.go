// The zoned reference walk: the test oracle ProcessZoned's pooled
// walk is pinned against (TestZonedFastPathEquivalence,
// TestZonedFastPathKeyInvalidation). It recomputes every zone from
// scratch on each call — no cross-call state, no skip, no replay — so
// any certified shortcut of the pooled walk that changes an output
// shows up as a divergence. Keep its behavior frozen.
package core

import (
	"context"
	"fmt"

	"hebs/internal/backlight"
	"hebs/internal/chart"
	"hebs/internal/driver"
	"hebs/internal/gray"
	"hebs/internal/histogram"
	"hebs/internal/obs"
	"hebs/internal/parallel"
)

// processZonedOracle is ProcessZoned routed through the reference
// walk. It resolves the same defaults (segment budget, metric) and
// opens the same root span, but skips the input validation: callers
// pass inputs ProcessZoned accepts.
func (e *Engine) processZonedOracle(ctx context.Context, img *gray.Image, opts Options, b backlight.Backend) (*ZonedResult, error) {
	segments := opts.Segments
	if segments == 0 {
		segments = driver.DefaultConfig.Sources
	}
	metric := opts.Metric
	if metric == nil {
		metric = chart.UQIMetric
	}
	sp := obs.SpanFromContext(ctx).Child("core.ProcessZoned")
	defer sp.End()
	return e.processZonedRef(obs.ContextWithSpan(ctx, sp), sp, img, opts, b, b.Grid(), segments, metric)
}

// zoneScratch is the reference walk's per-zone intermediate state
// between the analysis and apply fan-outs (the pooled walk keeps its
// persistent equivalent in zoneSlot).
type zoneScratch struct {
	x0, y0, x1, y1 int
	img            *gray.Image          // pooled copy of the zone's pixels
	hist           *histogram.Histogram // pooled zone histogram
	r              int                  // the zone's own admissible range
}

// processZonedRef is the reference walk: every phase recomputed from
// scratch on pooled per-call buffers. It is the oracle the fast walk's
// equivalence suite runs against; keep its behavior frozen.
func (e *Engine) processZonedRef(ctx context.Context, sp *obs.Span, img *gray.Image, opts Options, b backlight.Backend, g backlight.Grid, segments int, metric chart.Metric) (*ZonedResult, error) {
	zones := g.Zones()
	zs := make([]zoneScratch, zones)
	releaseScratch := func() {
		for k := range zs {
			if zs[k].img != nil {
				e.putGray(zs[k].img)
			}
			if zs[k].hist != nil {
				e.putHist(zs[k].hist)
			}
		}
	}
	defer releaseScratch()

	// Phase A — per-zone analysis, fanned out on the zone grid: copy
	// the zone's pixels into a pooled buffer, run step 1 on them (the
	// exact search measures the zone's own range-reduction distortion)
	// and extract the zone histogram.
	err := parallel.ForEach(ctx, zones, e.workers, func(k int) error {
		x0, y0, x1, y1 := g.ZoneRect(k, img.W, img.H)
		zimg := e.getGray(x1-x0, y1-y0)
		zs[k] = zoneScratch{x0: x0, y0: y0, x1: x1, y1: y1, img: zimg}
		copyRect(img, zimg, x0, y0)
		r, _, err := e.selectRange(zimg, opts)
		if err != nil {
			return fmt.Errorf("core: zone %d: %w", k, err)
		}
		h := e.getHist()
		zs[k].hist = h
		histogram.OfInto(zimg, h)
		zs[k].r = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase B — the serial β-field pass.
	rs := make([]int, zones)
	for k := range zs {
		rs[k] = zs[k].r
	}
	targets := make([]float64, zones)
	betas := make([]float64, zones)
	rngs := make([]int, zones)
	sweeps, err := betaField(opts, b, g, rs, targets, betas, rngs)
	if err != nil {
		return nil, err
	}

	// Phase C — per-zone Plan/Apply/measure, fanned out on the zone
	// grid. Zone plans share the plan cache; Λ and the reconstruction
	// are remapped rectangle-wise into full-frame pooled buffers.
	out := e.getGray(img.W, img.H)
	recon := e.getGray(img.W, img.H)
	defer e.putGray(recon)
	results := make([]ZoneResult, zones)
	befores := make([]backlight.ZonePower, zones)
	err = parallel.ForEach(ctx, zones, e.workers, func(k int) error {
		z := &zs[k]
		zsp := sp.Child("engine.zone")
		defer zsp.End()
		zsp.SetInt("zone", k)
		plan, cached, err := e.planFor(ctx, zsp, z.hist, rngs[k], segments, opts.Driver)
		if err != nil {
			return fmt.Errorf("core: zone %d: %w", k, err)
		}
		if err := applyLUTRect(plan.Lambda, img, out, z.x0, z.y0, z.x1, z.y1); err != nil {
			return err
		}
		reconLUT, err := plan.reconstruction()
		if err != nil {
			return err
		}
		if err := applyLUTRect(reconLUT, img, recon, z.x0, z.y0, z.x1, z.y1); err != nil {
			return err
		}
		scratch := e.getGray(z.img.W, z.img.H)
		defer e.putGray(scratch)
		if err := reconLUT.ApplyIntoShards(z.img, scratch, 1); err != nil {
			return err
		}
		d, err := metric(z.img, scratch)
		if err != nil {
			return fmt.Errorf("core: zone %d distortion: %w", k, err)
		}
		total := len(img.Pix)
		before, err := b.ZonePower(1, backlight.ContentOfRect(img, z.x0, z.y0, z.x1, z.y1, total))
		if err != nil {
			return fmt.Errorf("core: zone %d: %w", k, err)
		}
		after, err := b.ZonePower(betas[k], backlight.ContentOfRect(out, z.x0, z.y0, z.x1, z.y1, total))
		if err != nil {
			return fmt.Errorf("core: zone %d: %w", k, err)
		}
		befores[k] = before
		results[k] = ZoneResult{
			Zone: k, X0: z.x0, Y0: z.y0, X1: z.x1, Y1: z.y1,
			Range: rngs[k], TargetBeta: targets[k], Beta: betas[k],
			Distortion: d, PlanCached: cached, Power: after,
		}
		zsp.SetInt("range", rngs[k])
		zsp.SetFloat("beta", betas[k])
		return nil
	})
	if err != nil {
		e.putGray(out)
		return nil, err
	}

	res := &ZonedResult{
		Original:     img,
		Transformed:  out,
		Backend:      b.Name(),
		Grid:         g,
		Zones:        results,
		SmoothSweeps: sweeps,
		eng:          e,
	}
	res.AchievedDistortion, err = metric(img, recon)
	if err != nil {
		res.Release()
		return nil, err
	}
	finalizeZoned(res, befores, targets, betas, g, sweeps, sp)
	return res, nil
}
