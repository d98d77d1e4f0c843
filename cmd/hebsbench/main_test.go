package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig6Only(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", "fig6a,fig6b"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 6a") || !strings.Contains(out, "Figure 6b") {
		t.Errorf("missing sections:\n%s", out)
	}
	if strings.Contains(out, "Table 1") {
		t.Error("-only filter leaked other sections")
	}
}

func TestRunTable1WithCSV(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-only", "table1", "-size", "32", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Average") {
		t.Error("Table 1 average row missing")
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	if !strings.HasPrefix(string(data), "Name,") {
		t.Errorf("CSV header wrong: %s", string(data)[:20])
	}
	lines := strings.Count(string(data), "\n")
	if lines != 21 { // header + 19 images + average
		t.Errorf("CSV has %d lines, want 21", lines)
	}
}

func TestRunFig8WithDump(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-only", "fig8", "-size", "32", "-dump", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	// 6 images × (1 original + 2 ranges × 2 files) = 30 files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 30 {
		t.Errorf("dump produced %d files, want 30", len(entries))
	}
	if _, err := os.Stat(filepath.Join(dir, "lena_r100_preview.pgm")); err != nil {
		t.Errorf("expected dump file missing: %v", err)
	}
}

func TestRunCompareSection(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", "compare", "-size", "32"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, m := range []string{"hebs", "cbcs", "dls-contrast", "dls-brightness"} {
		if !strings.Contains(out, m) {
			t.Errorf("comparison missing method %s", m)
		}
	}
}

// TestRunAblationsSection: -only ablations emits the PLC, metric,
// equalize and LC-cell tables, and nothing else.
func TestRunAblationsSection(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-only", "ablations", "-size", "32", "-csv", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{"ablation_equalize.csv", "ablation_lc.csv", "ablation_metric.csv", "ablation_plc.csv"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("tables written: %v, want %v", got, want)
	}
	if sections := strings.Count(sb.String(), "== Ablation"); sections != len(want) {
		t.Errorf("printed %d ablation sections, want %d:\n%s", sections, len(want), sb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestRunUnknownOnlyIsNoop(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", "nonexistent"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "==") {
		t.Error("unknown -only selector should produce no sections")
	}
}

func TestRunJSONSummary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var sb strings.Builder
	if err := run([]string{"-only", "fig8", "-size", "32", "-json", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wrote JSON summary") {
		t.Error("JSON summary not announced")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("JSON not written: %v", err)
	}
	var doc struct {
		ImageSize int `json:"image_size"`
		Tables    []struct {
			Name    string     `json:"name"`
			Title   string     `json:"title"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("summary not valid JSON: %v", err)
	}
	if doc.ImageSize != 32 {
		t.Errorf("image_size = %d, want 32", doc.ImageSize)
	}
	if len(doc.Tables) != 1 || doc.Tables[0].Name != "fig8" {
		t.Fatalf("tables = %+v, want exactly fig8", doc.Tables)
	}
	if len(doc.Tables[0].Rows) == 0 || len(doc.Tables[0].Columns) != 4 {
		t.Errorf("fig8 table shape wrong: %+v", doc.Tables[0])
	}
	if doc.Metrics.Counters["core.frames_total"] < 1 {
		t.Error("metrics snapshot missing frame counter")
	}
}
