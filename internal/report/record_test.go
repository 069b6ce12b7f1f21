package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func sampleRecord() *RunRecord {
	return &RunRecord{
		Manifest: Manifest{
			Tool: "lumos-sim", Args: []string{"-rounds", "3", "-seed", "7"},
			Seed: 7, Dataset: "sim", Task: "supervised", Backbone: "gcn",
			Sched: "sync", Fleet: "zipf", Rounds: 3,
			GoVersion: "go1.24", GOMAXPROCS: 8, NumCPU: 8, CreatedUnix: 1754000000,
			MetricName: "accuracy", FinalMetric: 0.91, WallClock: 12.5,
			TotalBytes: 123456, TotalEnergy: 3.25,
		},
		Rounds: []RoundRow{
			{Round: 0, Start: 0, Commit: 4.5, Available: 10, Participants: 8, Bytes: 4000, Energy: 1.1, Loss: 0.9},
			{Round: 1, Start: 4.5, Commit: 8.25, Available: 9, Participants: 7, Late: 1, Bytes: 3500, Energy: 1.0, Loss: 0.7},
			{Round: 2, Start: 8.25, Commit: 12.5, Available: 10, Participants: 8, Bytes: 4100, Energy: 1.15, Loss: 0.55, Metric: 0.91, Evaluated: true},
		},
		Metrics: map[string]float64{
			"lumos_sim_rounds_total": 3,
			"lumos_sim_bytes_total":  11600,
		},
	}
}

// TestRunRecordRoundTrip: write → load → DeepEqual, with no warnings on a
// clean record.
func TestRunRecordRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	want := sampleRecord()
	if err := writeRunRecord(dir, want); err != nil {
		t.Fatal(err)
	}
	got, warnings, err := LoadRunRecord(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("clean record produced warnings: %v", warnings)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestLoadLegacyKernelsKey: run records written while runs still had a
// selectable kernel path carry a "kernels" key in their manifest; they must
// stay readable now that the field is gone.
func TestLoadLegacyKernelsKey(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	want := sampleRecord()
	if err := writeRunRecord(dir, want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestFile)
	mb, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(mb), "{", `{"kernels":"reference",`, 1)
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	got, warnings, err := LoadRunRecord(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("legacy manifest produced warnings: %v", warnings)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy manifest mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestWriterStreamsRecord: the incremental Writer produces the same record
// as the one-shot WriteRunRecord path (minus metrics, which Finish takes
// from a registry instead).
func TestWriterStreamsRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	want := sampleRecord()
	want.Metrics = nil
	w, err := NewWriter(dir, want.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	// The manifest must already be on disk before any round commits, so a
	// crash mid-run still leaves an identifiable record.
	if _, err := os.Stat(filepath.Join(dir, ManifestFile)); err != nil {
		t.Fatalf("manifest not written up front: %v", err)
	}
	for _, row := range want.Rounds {
		if err := w.Round(row); err != nil {
			t.Fatal(err)
		}
	}
	m := want.Manifest
	if err := w.Finish(Summary{
		MetricName: m.MetricName, FinalMetric: m.FinalMetric,
		WallClock: m.WallClock, TotalBytes: m.TotalBytes, TotalEnergy: m.TotalEnergy,
	}, nil); err != nil {
		t.Fatal(err)
	}
	got, warnings, err := LoadRunRecord(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed record mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestNilWriterNoOps: the disabled path must be free and safe, like the
// rest of the telemetry surface.
func TestNilWriterNoOps(t *testing.T) {
	var w *Writer
	if w.Dir() != "" {
		t.Fatal("nil writer has a dir")
	}
	if err := w.Round(RoundRow{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(Summary{}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLoadTruncatedTail: a torn final rounds.jsonl line — a killed run —
// keeps the complete prefix and reports a warning instead of failing.
func TestLoadTruncatedTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	want := sampleRecord()
	if err := writeRunRecord(dir, want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, RoundsFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-25], 0o644); err != nil {
		t.Fatal(err)
	}
	got, warnings, err := LoadRunRecord(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "truncated") {
		t.Fatalf("want one truncation warning, got %v", warnings)
	}
	if len(got.Rounds) != len(want.Rounds)-1 {
		t.Fatalf("want %d complete rounds kept, got %d", len(want.Rounds)-1, len(got.Rounds))
	}
	if !reflect.DeepEqual(got.Rounds, want.Rounds[:len(want.Rounds)-1]) {
		t.Fatalf("kept prefix mismatch: %+v", got.Rounds)
	}
}

// TestLoadCorruptMiddleFails: corruption before the final line is not a
// truncation artifact and must fail loudly.
func TestLoadCorruptMiddleFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	if err := writeRunRecord(dir, sampleRecord()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, RoundsFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	lines[1] = "{torn json\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadRunRecord(dir); err == nil {
		t.Fatal("mid-file corruption loaded without error")
	}
}

// TestLoadMissingRoundsWarns: a record with only a manifest (crash before
// the first commit) still loads, with a warning.
func TestLoadMissingRoundsWarns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "rec")
	rec := sampleRecord()
	rec.Rounds, rec.Metrics = nil, nil
	if err := writeRunRecord(dir, rec); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, RoundsFile)); err != nil {
		t.Fatal(err)
	}
	got, warnings, err := LoadRunRecord(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 {
		t.Fatalf("want one warning, got %v", warnings)
	}
	if len(got.Rounds) != 0 || got.Metrics != nil {
		t.Fatalf("unexpected content: %+v", got)
	}
}

// writeRunRecord writes a complete record to dir in one call — the
// non-streaming twin of Writer, for fixtures whose rows already exist.
func writeRunRecord(dir string, rec *RunRecord) error {
	if rec == nil {
		return fmt.Errorf("report: nil record")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := writeManifest(dir, rec.Manifest); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, RoundsFile))
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	bw := bufio.NewWriter(f)
	for _, row := range rec.Rounds {
		b, err := json.Marshal(row)
		if err != nil {
			f.Close()
			return fmt.Errorf("report: %w", err)
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("report: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if rec.Metrics != nil {
		names := make([]string, 0, len(rec.Metrics))
		for n := range rec.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %g\n", n, rec.Metrics[n])
		}
		if err := os.WriteFile(filepath.Join(dir, MetricsFile), []byte(b.String()), 0o644); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	return nil
}
