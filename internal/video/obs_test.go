package video

import (
	"testing"

	"hebs/internal/core"
	"hebs/internal/obs"
	"hebs/internal/sipi"
)

// TestProcessEmitsPerFrameSpans verifies the per-frame span timeline:
// one video.frame child per frame under the video.Process root, each
// holding its core.Process run with and without delta analysis,
// annotated with the policy decision — and, with the exact search on, every range search attributed to its
// frame (checkRangeSearchAttribution).
func TestProcessEmitsPerFrameSpans(t *testing.T) {
	img, err := sipi.Generate("autumn", 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Pan(img, 32, 32, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	// With delta analysis on, the pan's frames all move, so none fuses
	// and every frame must still own its core.Process run.
	for _, delta := range []bool{false, true} {
		c := obs.NewCollector()
		prev := obs.SetSink(c)
		_, err := Process(seq, Policy{
			MaxStep:       0.02,
			DeltaAnalysis: delta,
			Options:       core.Options{DynamicRange: 150},
		})
		obs.SetSink(prev)
		if err != nil {
			t.Fatal(err)
		}
		checkFrameSpans(t, c, delta)
	}
	checkRangeSearchAttribution(t, seq)
}

// checkFrameSpans asserts the per-frame span timeline of one 4-frame
// run: one video.frame child per frame under the video.Process root,
// each annotated with its applied β and holding a core.Process run.
func checkFrameSpans(t *testing.T, c *obs.Collector, delta bool) {
	t.Helper()
	var rootID uint64
	for _, s := range c.Spans() {
		if s.Name == "video.Process" {
			rootID = s.ID
			if s.Attrs["frames"] != 4 {
				t.Errorf("delta=%v: root attrs = %v, want frames=4", delta, s.Attrs)
			}
		}
	}
	if rootID == 0 {
		t.Fatalf("delta=%v: no video.Process span", delta)
	}
	frameSpans := map[int]obs.SpanData{}
	for _, s := range c.Spans() {
		if s.Name != "video.frame" {
			continue
		}
		if s.Parent != rootID {
			t.Errorf("delta=%v: frame span parented under %d, want root %d", delta, s.Parent, rootID)
		}
		idx, ok := s.Attrs["frame"].(int)
		if !ok {
			t.Fatalf("delta=%v: frame span lacks frame attr: %v", delta, s.Attrs)
		}
		frameSpans[idx] = s
		if _, ok := s.Attrs["applied_beta"]; !ok {
			t.Errorf("delta=%v: frame %d missing applied_beta attr: %v", delta, idx, s.Attrs)
		}
	}
	if len(frameSpans) != 4 {
		t.Fatalf("delta=%v: got %d frame spans, want 4", delta, len(frameSpans))
	}
	runsByParent := map[uint64]int{}
	for _, s := range c.Spans() {
		if s.Name == "core.Process" {
			runsByParent[s.Parent]++
		}
	}
	for idx, fs := range frameSpans {
		if runsByParent[fs.ID] == 0 {
			t.Errorf("delta=%v: frame %d has no nested core.Process run", delta, idx)
		}
	}
}

// checkRangeSearchAttribution runs seq with the exact search on, with
// and without delta analysis: every range_select stage span must hang
// under a span tagged with its frame, and the range_select stage timer
// must gain at least one observation per searched frame. Every frame
// of seq must move, so that every frame searches.
func checkRangeSearchAttribution(t *testing.T, seq *Sequence) {
	t.Helper()
	timer := obs.NewHistogram("core.stage.range_select.seconds", obs.LatencyBuckets())
	for _, delta := range []bool{false, true} {
		for _, workers := range []int{0, 2} {
			c := obs.NewCollector()
			prev := obs.SetSink(c)
			before := timer.Count()
			_, err := Process(seq, Policy{
				MaxStep:       0.02,
				DeltaAnalysis: delta,
				Workers:       workers,
				Options:       core.Options{MaxDistortionPercent: 10, ExactSearch: true},
			})
			obs.SetSink(prev)
			if err != nil {
				t.Fatal(err)
			}
			if got := timer.Count() - before; got < int64(len(seq.Frames)) {
				t.Errorf("delta=%v workers=%d: range_select timer gained %d observations, want >= %d",
					delta, workers, got, len(seq.Frames))
			}
			byID := map[uint64]obs.SpanData{}
			for _, s := range c.Spans() {
				byID[s.ID] = s
			}
			searched := map[int]bool{}
			for _, s := range c.Spans() {
				if s.Name != "stage.range_select" {
					continue
				}
				frame, tagged := -1, false
				for p, ok := byID[s.Parent]; ok; p, ok = byID[p.Parent] {
					if frame, tagged = p.Attrs["frame"].(int); tagged {
						break
					}
				}
				if !tagged {
					t.Fatalf("delta=%v workers=%d: range_select span %d has no frame-tagged ancestor", delta, workers, s.ID)
				}
				searched[frame] = true
			}
			if len(searched) != len(seq.Frames) {
				t.Errorf("delta=%v workers=%d: range_select spans cover frames %v, want all %d",
					delta, workers, searched, len(seq.Frames))
			}
		}
	}
}
