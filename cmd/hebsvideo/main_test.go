package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hebs/internal/obs"
)

func TestRunMixedClip(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-size", "48", "-frames", "6"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"mean saving:", "flicker:", "detected cuts:", "applied_beta"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunClipKinds(t *testing.T) {
	for _, kind := range []string{"pan", "fade", "cut"} {
		var sb strings.Builder
		if err := run([]string{"-clip", kind, "-size", "48", "-frames", "4"}, &sb); err != nil {
			t.Errorf("clip %q: %v", kind, err)
		}
	}
}

func TestRunNoSmoothingNoCutDetect(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-clip", "cut", "-size", "48", "-frames", "4",
		"-maxstep", "0", "-cutdetect=false"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithReuse(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-clip", "cut", "-size", "48", "-frames", "4", "-reuse", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-clip", "bogus"},
		{"-frames", "1"},
		{"-budget", "0"},
		{"-budget", "-5"},
		{"-reuse", "-1"},
		{"-notaflag"},
	}
	for i, args := range cases {
		var sb strings.Builder
		if err := run(append(args, "-size", "32"), &sb); err == nil {
			t.Errorf("case %d (%v) should error", i, args)
		}
	}
}

func TestBuildClipShapes(t *testing.T) {
	for _, kind := range []string{"pan", "fade", "cut", "mixed"} {
		seq, err := buildClip(kind, 6, 32)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(seq.Frames) < 2 {
			t.Errorf("%s: only %d frames", kind, len(seq.Frames))
		}
		if seq.Frames[0].W != 32 || seq.Frames[0].H != 32 {
			t.Errorf("%s: frame size %dx%d", kind, seq.Frames[0].W, seq.Frames[0].H)
		}
	}
}

// TestRunTimeline: the timeline has a row per frame, every stage
// column, and at least one core.Process run on every row — with -delta
// too, where every pan frame moves and so measures.
func TestRunTimeline(t *testing.T) {
	for _, args := range [][]string{
		{"-clip", "fade", "-frames", "4", "-size", "32", "-timeline"},
		{"-clip", "pan", "-frames", "4", "-size", "64", "-delta", "-timeline"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		_, table, ok := strings.Cut(sb.String(), "per-frame span timeline")
		if !ok {
			t.Fatalf("%v: timeline section missing:\n%s", args, sb.String())
		}
		for _, col := range []string{"range_select", "equalize", "plc", "apply"} {
			if !strings.Contains(table, col) {
				t.Errorf("%v: timeline missing stage column %q", args, col)
			}
		}
		rows := 0
		for _, line := range strings.Split(table, "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			if _, err := strconv.Atoi(f[0]); err != nil {
				continue // title and header lines
			}
			rows++
			if runs, err := strconv.Atoi(f[2]); err != nil || runs < 1 {
				t.Errorf("%v: frame %s: runs column %q, want >= 1", args, f[0], f[2])
			}
		}
		if rows != 4 {
			t.Errorf("%v: timeline has %d frame rows, want 4:\n%s", args, rows, table)
		}
	}
}

// TestRunScansCutsOnce: a run scans the clip for cuts once, with or
// without -cutdetect, so video.cuts_detected_total grows by exactly
// the number of cuts the run prints.
func TestRunScansCutsOnce(t *testing.T) {
	for _, detect := range []string{"-cutdetect=true", "-cutdetect=false"} {
		metricsPath := filepath.Join(t.TempDir(), "metrics.json")
		before := obs.Default().Counter("video.cuts_detected_total").Value()
		var sb strings.Builder
		if err := run([]string{"-clip", "cut", "-frames", "10", "-size", "48", detect,
			"-metrics-out", metricsPath}, &sb); err != nil {
			t.Fatal(err)
		}
		_, line, ok := strings.Cut(sb.String(), "detected cuts: [")
		if !ok {
			t.Fatalf("%s: no detected-cuts line:\n%s", detect, sb.String())
		}
		line, _, _ = strings.Cut(line, "]")
		printed := len(strings.Fields(line))
		if printed == 0 {
			t.Fatalf("%s: the cut clip printed no cuts", detect)
		}
		data, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if got := snap.Counters["video.cuts_detected_total"] - before; got != int64(printed) {
			t.Errorf("%s: cuts_detected_total grew by %d, printed %d cuts", detect, got, printed)
		}
	}
}
