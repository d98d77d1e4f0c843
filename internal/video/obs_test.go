package video

import (
	"testing"

	"hebs/internal/core"
	"hebs/internal/obs"
	"hebs/internal/sipi"
)

// TestProcessEmitsPerFrameSpans verifies the per-frame span timeline:
// one video.frame child per frame under the video.Process root, each
// holding its core.Process run, annotated with the policy decision —
// and, with the exact search on, every range search attributed to its
// frame (checkRangeSearchAttribution).
func TestProcessEmitsPerFrameSpans(t *testing.T) {
	c := obs.NewCollector()
	prev := obs.SetSink(c)
	defer obs.SetSink(prev)

	img, err := sipi.Generate("autumn", 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Pan(img, 32, 32, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Process(seq, Policy{
		MaxStep: 0.02,
		Options: core.Options{DynamicRange: 150},
	}); err != nil {
		t.Fatal(err)
	}
	var rootID uint64
	for _, s := range c.Spans() {
		if s.Name == "video.Process" {
			rootID = s.ID
			if s.Attrs["frames"] != 4 {
				t.Errorf("root attrs = %v, want frames=4", s.Attrs)
			}
		}
	}
	if rootID == 0 {
		t.Fatal("no video.Process span")
	}
	frameSpans := map[int]obs.SpanData{}
	for _, s := range c.Spans() {
		if s.Name != "video.frame" {
			continue
		}
		if s.Parent != rootID {
			t.Errorf("frame span parented under %d, want root %d", s.Parent, rootID)
		}
		idx, ok := s.Attrs["frame"].(int)
		if !ok {
			t.Fatalf("frame span lacks frame attr: %v", s.Attrs)
		}
		frameSpans[idx] = s
		if _, ok := s.Attrs["applied_beta"]; !ok {
			t.Errorf("frame %d missing applied_beta attr: %v", idx, s.Attrs)
		}
	}
	if len(frameSpans) != 4 {
		t.Fatalf("got %d frame spans, want 4", len(frameSpans))
	}
	// Each frame owns at least one nested pipeline run.
	runsByParent := map[uint64]int{}
	for _, s := range c.Spans() {
		if s.Name == "core.Process" {
			runsByParent[s.Parent]++
		}
	}
	for idx, fs := range frameSpans {
		if runsByParent[fs.ID] == 0 {
			t.Errorf("frame %d has no nested core.Process run", idx)
		}
	}
	obs.SetSink(prev)
	checkRangeSearchAttribution(t, seq)
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
