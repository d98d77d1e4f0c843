package video

import (
	"reflect"
	"testing"

	"hebs/internal/core"
)

// TestDeltaMatchesFull: enabling DeltaAnalysis must not change a single
// bit of the Result — every per-frame β, range, distortion and saving,
// and the clip aggregates — across motion shapes, policy combinations,
// tile sizes and worker counts: every run equals the serial oracle.
// The delta path is an optimization, not an approximation.
func TestDeltaMatchesFull(t *testing.T) {
	for seqName, seq := range pipelineFixtures(t) {
		for polName, pol := range oraclePolicies() {
			want := serialOracle(t, seq, pol)
			// Tile 16 gives 9 tiles on the 48×48 fixtures (partial
			// re-bins); 0 selects the 64-pixel default (one tile).
			for _, tile := range []int{0, 16} {
				for _, workers := range []int{0, 1, 2, 4, -1} {
					dpol := pol
					dpol.DeltaAnalysis = true
					dpol.TileSize = tile
					dpol.Workers = workers
					got, err := Process(seq, dpol)
					if err != nil {
						t.Fatalf("%s/%s tile=%d workers=%d: %v", seqName, polName, tile, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s tile=%d workers=%d: delta result differs from the serial oracle:\n got %+v\nwant %+v",
							seqName, polName, tile, workers, got, want)
					}
				}
			}
		}
	}
}

// TestDeltaSharedEngineAcrossClips: the pooled deltaState carries a
// reference frame and memoized measurements across clip walks. Running
// several clips back to back through one engine — including a second
// walk of the same clip, where the pooled reference may match frame 0
// exactly and fuse it — must keep every Result equal to the delta-off
// walk and leak no pooled buffers.
func TestDeltaSharedEngineAcrossClips(t *testing.T) {
	fixtures := pipelineFixtures(t)
	eng := core.NewEngine(core.EngineOptions{})
	pol := steadyPolicy()
	pol.Engine = eng
	dpol := pol
	dpol.DeltaAnalysis = true
	dpol.TileSize = 16
	order := []string{"static", "static", "pan", "static", "mixed", "static"}
	for _, workers := range []int{0, 4} {
		for step, name := range order {
			want, err := Process(fixtures[name], pol)
			if err != nil {
				t.Fatal(err)
			}
			wpol := dpol
			wpol.Workers = workers
			got, err := Process(fixtures[name], wpol)
			if err != nil {
				t.Fatalf("workers=%d step %d (%s): %v", workers, step, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d step %d (%s): delta result differs after pooled reuse:\n got %+v\nwant %+v",
					workers, step, name, got, want)
			}
		}
	}
	if inUse := eng.PoolStats().InUse(); inUse != 0 {
		t.Fatalf("pool leak: %d buffers still in use", inUse)
	}
}

// TestDeltaPolicyValidation: negative tile sizes are rejected, and a
// tile size below the minimum surfaces the histogram layer's error.
func TestDeltaPolicyValidation(t *testing.T) {
	seq := pipelineFixtures(t)["static"]
	pol := steadyPolicy()
	pol.DeltaAnalysis = true
	pol.TileSize = -1
	if _, err := Process(seq, pol); err == nil {
		t.Error("negative TileSize accepted")
	}
	pol.TileSize = 4
	if _, err := Process(seq, pol); err == nil {
		t.Error("TileSize below minimum accepted")
	}
}
