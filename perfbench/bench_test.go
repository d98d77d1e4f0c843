package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"hebs/internal/video"
)

// clipBytes generates clip k of a seed and returns its frames' pixels.
func clipBytes(t *testing.T, w *workload, s *scenes, seed uint64, k int) [][]byte {
	t.Helper()
	frames := newFrames(w.frames)
	w.fill(s, clipSource(seed, k), frames)
	out := make([][]byte, len(frames))
	for i, f := range frames {
		out[i] = append([]byte(nil), f.Pix...)
	}
	return out
}

func sameClip(a, b [][]byte) bool {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestClipsArePureFunctionsOfSeedAndIndex(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s, err := newScenes(w.families...)
			if err != nil {
				t.Fatal(err)
			}
			ref := clipBytes(t, w, s, 7, 3)
			// Another clip in between must not change what clip 3 is.
			clipBytes(t, w, s, 7, 4)
			if again := clipBytes(t, w, s, 7, 3); !sameClip(ref, again) {
				t.Fatal("same seed and index gave different clips")
			}
			if other := clipBytes(t, w, s, 8, 3); sameClip(ref, other) {
				t.Fatal("seeds 7 and 8 gave the same clip")
			}
			if other := clipBytes(t, w, s, 7, -1); sameClip(ref, other) {
				t.Fatal("a warm-up clip equals a measured clip")
			}
		})
	}
}

func TestClipShapes(t *testing.T) {
	mix, err := workloadByName("mix-curve")
	if err != nil {
		t.Fatal(err)
	}
	s, err := newScenes(mix.families...)
	if err != nil {
		t.Fatal(err)
	}
	c := clipBytes(t, mix, s, 1, 0)
	// The last third holds a still of each fade end for half of it.
	if !bytes.Equal(c[16], c[8]) || !bytes.Equal(c[19], c[8]) || !bytes.Equal(c[20], c[15]) || !bytes.Equal(c[23], c[15]) {
		t.Error("mix-curve cut does not hold the fade's end scenes")
	}
	if bytes.Equal(c[8], c[15]) || bytes.Equal(c[0], c[1]) {
		t.Error("mix-curve clip repeats a frame it should not")
	}

	talk, err := workloadByName("talk-led")
	if err != nil {
		t.Fatal(err)
	}
	if s, err = newScenes(talk.families...); err != nil {
		t.Fatal(err)
	}
	c = clipBytes(t, talk, s, 1, 0)
	repeats := 0
	for i := 1; i < len(c); i++ {
		if bytes.Equal(c[i], c[i-1]) {
			repeats++
		}
	}
	if repeats < 6 || repeats > 8 {
		t.Errorf("talk-led clip repeats %d of 15 frames, want every other frame", repeats)
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	// The fewest samples with minTail beyond the percentile.
	fewest := map[float64]int{0.5: 20, 0.9: minClips}
	xs := make([]float64, 0, 300)
	for n := 1; n <= 300; n++ {
		xs = append(xs, float64((n*37)%301)) // distinct, unsorted
		for _, q := range []float64{0.5, 0.9} {
			p, err := percentile(xs, q)
			if n < fewest[q] {
				if err == nil {
					t.Fatalf("p%v of %d samples accepted", q, n)
				}
				continue
			}
			if err != nil {
				t.Fatalf("p%v of %d samples: %v", q, n, err)
			}
			beyond, below := 0, 0
			for _, x := range xs {
				if x > p {
					beyond++
				} else {
					below++
				}
			}
			if beyond < minTail {
				t.Fatalf("p%v of %d samples has %d beyond it", q, n, beyond)
			}
			if float64(below) < q*float64(n) {
				t.Fatalf("p%v of %d samples has only %d at or below it", q, n, below)
			}
		}
	}
	if _, err := percentile(xs, 1); err == nil {
		t.Fatal("p100 accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v", got)
	}
}

// clone deep-copies an output so a test can perturb the copy.
func clone(o clipOutput) clipOutput {
	cp := o
	cp.res = &video.Result{}
	*cp.res = *o.res
	cp.res.Frames = append([]video.FrameResult(nil), o.res.Frames...)
	return cp
}

func TestOutputCheckRejectsPerturbedResults(t *testing.T) {
	w, err := workloadByName("mix-curve")
	if err != nil {
		t.Fatal(err)
	}
	b, err := setup(context.Background(), w, 5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.runClip(context.Background(), b.pol, b.fill(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := invariants(w, out); err != nil {
		t.Fatal(err)
	}
	if err := sameOutput(out, clone(out)); err != nil {
		t.Fatalf("identical outputs rejected: %v", err)
	}
	digestOf := func(o clipOutput) string {
		d := newDigest()
		d.add(o)
		return d.sum()
	}
	ref := digestOf(out)
	next := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	perturb := map[string]func(o *clipOutput){
		"TargetBeta":     func(o *clipOutput) { o.res.Frames[3].TargetBeta = next(o.res.Frames[3].TargetBeta) },
		"Beta":           func(o *clipOutput) { o.res.Frames[3].Beta = next(o.res.Frames[3].Beta) },
		"Range":          func(o *clipOutput) { o.res.Frames[3].Range++ },
		"SavingPercent":  func(o *clipOutput) { o.res.Frames[3].SavingPercent = next(o.res.Frames[3].SavingPercent) },
		"Distortion":     func(o *clipOutput) { o.res.Frames[3].Distortion = next(o.res.Frames[3].Distortion) },
		"Zones":          func(o *clipOutput) { o.res.Frames[3].Zones++ },
		"ZoneBetaSpread": func(o *clipOutput) { o.res.Frames[3].ZoneBetaSpread = next(o.res.Frames[3].ZoneBetaSpread) },
		"MeanSaving":     func(o *clipOutput) { o.res.MeanSaving = next(o.res.MeanSaving) },
		"dimmed":         func(o *clipOutput) { o.dimmed = next(o.dimmed) },
		"full":           func(o *clipOutput) { o.full = next(o.full) },
		"dropped frame":  func(o *clipOutput) { o.res.Frames = o.res.Frames[1:] },
	}
	for name, f := range perturb {
		bad := clone(out)
		f(&bad)
		if err := sameOutput(out, bad); err == nil {
			t.Errorf("%s: perturbed output accepted", name)
		}
		if name != "dropped frame" && digestOf(bad) == ref {
			t.Errorf("%s: perturbed output has the same digest", name)
		}
	}

	// The invariants reject what the pipeline must never produce.
	bad := clone(out)
	bad.res.Frames[2].Beta = bad.res.Frames[2].TargetBeta / 2
	if err := invariants(w, bad); err == nil || !strings.Contains(err.Error(), "below target") {
		t.Errorf("β below target accepted: %v", err)
	}
	bad = clone(out)
	bad.res.Frames[2].Range--
	bad.res.Frames[2].TargetBeta = 0
	if err := invariants(w, bad); err == nil || !strings.Contains(err.Error(), "R/255") {
		t.Errorf("β ≠ R/255 accepted: %v", err)
	}
	bad = clone(out)
	bad.dimmed = 2 * bad.full
	if err := invariants(w, bad); err == nil {
		t.Error("dimmed energy above full energy accepted")
	}
}

func TestOutputCheckPassesOnSerialRerun(t *testing.T) {
	w, err := workloadByName("talk-led")
	if err != nil {
		t.Fatal(err)
	}
	b, err := setup(context.Background(), w, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := &timedRun{}
	for k := 0; k < 2; k++ {
		out, err := w.runClip(context.Background(), b.pol, b.fill(k))
		if err != nil {
			t.Fatal(err)
		}
		tr.outs = append(tr.outs, out)
		tr.failed = append(tr.failed, nil)
	}
	b.check(context.Background(), tr)
	for k, err := range tr.failed {
		if err != nil {
			t.Errorf("clip %d: %v", k, err)
		}
	}
	// A wrong stored output is caught.
	tr.outs[1].res.Frames[0].Distortion++
	b.check(context.Background(), tr)
	if tr.failed[1] == nil {
		t.Error("output check accepted a wrong clip")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload accepted")
	}
	if code := run([]string{"-trace", "2"}, &out, &errOut); code == 0 {
		t.Error("-trace 2 accepted")
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed a result: %q", out.String())
	}
}
