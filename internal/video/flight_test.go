package video

import (
	"sort"
	"testing"

	"hebs/internal/core"
	"hebs/internal/obs"
)

// TestProcessFeedsFlightRecorder: the walk at one and at four workers
// feeds one record per frame into an installed flight recorder, with
// the governor's decisions mirrored in the record fields.
func TestProcessFeedsFlightRecorder(t *testing.T) {
	seq := pipelineFixtures(t)["mixed"]
	pol := Policy{
		MaxStep:        0.01,
		CutThreshold:   0.15,
		ReuseThreshold: 4,
		Options:        core.Options{MaxDistortionPercent: 10, ExactSearch: true},
	}
	for _, workers := range []int{1, 4} {
		rec := obs.NewFlightRecorder(len(seq.Frames) + 8)
		prev := obs.SetFlightRecorder(rec)
		ppol := pol
		ppol.Workers = workers
		res, err := Process(seq, ppol)
		obs.SetFlightRecorder(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		recs := rec.Snapshot()
		if len(recs) != len(seq.Frames) {
			t.Fatalf("workers=%d: %d flight records, want %d", workers, len(recs), len(seq.Frames))
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Frame < recs[j].Frame })
		for i, fr := range recs {
			if fr.Frame != i {
				t.Fatalf("workers=%d: frame indices not a permutation of 0..n-1: %d at %d", workers, fr.Frame, i)
			}
			got := res.Frames[i]
			if fr.Beta != got.Beta || fr.Range != got.Range {
				t.Errorf("workers=%d frame %d: record (β=%v r=%d) disagrees with result (β=%v r=%d)",
					workers, i, fr.Beta, fr.Range, got.Beta, got.Range)
			}
			if fr.TargetBeta <= 0 || fr.TargetBeta > 1 {
				t.Errorf("workers=%d frame %d: target β %v out of (0,1]", workers, i, fr.TargetBeta)
			}
			if fr.Seconds < 0 {
				t.Errorf("workers=%d frame %d: negative wall time %v", workers, i, fr.Seconds)
			}
			if fr.HistHash == 0 {
				t.Errorf("workers=%d frame %d: no histogram hash despite ReuseThreshold>0", workers, i)
			}
			if workers == 1 && fr.Workers != 1 {
				t.Errorf("workers=1 frame %d: Workers = %d", i, fr.Workers)
			}
			if workers > 1 && fr.Workers < 2 {
				t.Errorf("workers=%d frame %d: Workers = %d", workers, i, fr.Workers)
			}
		}
		// The governor flags must appear where the result says they
		// happened — the static prefix reuses, the cut index snaps.
		cutSnaps := 0
		for _, fr := range recs {
			if fr.CutSnap {
				cutSnaps++
			}
		}
		if cutSnaps == 0 {
			t.Errorf("workers=%d: no cut_snap records on the mixed clip", workers)
		}
	}
}

// TestProcessNoRecorderNoRecords: with recording disabled the pipeline
// must not fabricate a recorder (the nil-sink discipline).
func TestProcessNoRecorderNoRecords(t *testing.T) {
	prev := obs.SetFlightRecorder(nil)
	defer obs.SetFlightRecorder(prev)
	seq := pipelineFixtures(t)["pan"]
	if _, err := Process(seq, Policy{Options: core.Options{MaxDistortionPercent: 10}}); err != nil {
		t.Fatal(err)
	}
	if obs.Flight() != nil {
		t.Error("Process installed a flight recorder on its own")
	}
}
