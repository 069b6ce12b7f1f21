// Package report is the analysis half of observability: recorded, diffable
// run artifacts plus trace analytics over the telemetry internal/obs
// writes.
//
// PR 7 made every layer emit metrics and traces; this package makes them
// answerable. A run record is a directory holding three files:
//
//   - manifest.json — the full reproduction context (CLI args, seed, fleet,
//     topology, go version, GOMAXPROCS) plus the run's summary
//     (final metric, wall-clock, bytes, energy), rewritten when the run
//     finishes;
//   - rounds.jsonl — one JSON row per committed round, streamed as rounds
//     commit so a crashed run still leaves a usable prefix;
//   - metrics.prom — the final Prometheus scrape of the run's registry.
//
// Writer streams a record incrementally (lumos-sim/lumos-train -run-out);
// LoadRunRecord reads one back, tolerating a truncated rounds.jsonl tail
// with a warning — exactly what a killed run leaves behind. Two records of the same scenario diff with
// Diff (cmd/lumos-report), turning any pair of runs into a CI-able A/B
// gate; AnalyzeTrace (analyze.go) computes per-round critical paths and
// straggler blame from the trace events the simulator records.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"lumos/internal/core"
	"lumos/internal/obs"
	"lumos/internal/sim"
)

// Names of the files inside a run-record directory.
const (
	ManifestFile = "manifest.json"
	RoundsFile   = "rounds.jsonl"
	MetricsFile  = "metrics.prom"
)

// Manifest is a run's reproduction context and summary. The context fields
// are written when the run starts; the summary fields are zero until the
// run finishes and the manifest is rewritten.
type Manifest struct {
	// Tool names the producing binary ("lumos-sim", "lumos-train").
	Tool string `json:"tool"`
	// Args is the full command line after the binary name — enough to
	// re-run the exact configuration.
	Args []string `json:"args"`
	Seed int64    `json:"seed"`

	Dataset  string `json:"dataset,omitempty"`
	Task     string `json:"task,omitempty"`
	Backbone string `json:"backbone,omitempty"`
	Sched    string `json:"sched,omitempty"`
	// Fleet and Topology describe the simulated deployment (sim runs only).
	Fleet    string `json:"fleet,omitempty"`
	Topology string `json:"topology,omitempty"`
	// Rounds is the configured round (or epoch) count.
	Rounds int `json:"rounds,omitempty"`

	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	CreatedUnix int64  `json:"created_unix"`

	// Summary, filled by Writer.Finish.
	MetricName  string  `json:"metric_name,omitempty"`
	FinalMetric float64 `json:"final_metric,omitempty"`
	WallClock   float64 `json:"wall_clock,omitempty"`
	TotalBytes  int64   `json:"total_bytes,omitempty"`
	TotalEnergy float64 `json:"total_energy,omitempty"`
}

// NewManifest stamps the environment fields every producer fills the same
// way: tool name, full args, go version, GOMAXPROCS, NumCPU, creation time.
func NewManifest(tool string, args []string, seed int64, createdUnix int64) Manifest {
	return Manifest{
		Tool:       tool,
		Args:       append([]string(nil), args...),
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),

		CreatedUnix: createdUnix,
	}
}

// Summary is the run's outcome, folded into the manifest at Finish.
type Summary struct {
	MetricName  string
	FinalMetric float64
	WallClock   float64
	TotalBytes  int64
	TotalEnergy float64
}

// RoundRow is one committed round (or epoch) of a run — sim.RoundStats plus
// the training metrics, flattened into a stable JSON schema.
type RoundRow struct {
	Round        int     `json:"round"`
	Start        float64 `json:"start"`
	Commit       float64 `json:"commit"`
	Available    int     `json:"available,omitempty"`
	Participants int     `json:"participants,omitempty"`
	Joined       int     `json:"joined,omitempty"`
	Left         int     `json:"left,omitempty"`
	Late         int     `json:"late,omitempty"`
	CatchUps     int     `json:"catchups,omitempty"`
	StaleApplied int     `json:"stale,omitempty"`
	Dropped      int     `json:"dropped,omitempty"`
	Skipped      bool    `json:"skipped,omitempty"`
	Bytes        int64   `json:"bytes,omitempty"`
	Energy       float64 `json:"energy,omitempty"`
	Loss         float64 `json:"loss"`
	Metric       float64 `json:"metric,omitempty"`
	Evaluated    bool    `json:"evaluated,omitempty"`
	ValMetric    float64 `json:"val_metric,omitempty"`
	ValEvaluated bool    `json:"val_evaluated,omitempty"`
}

// RowFromSim flattens one simulated round into its record row.
func RowFromSim(rs sim.RoundStats) RoundRow {
	return RoundRow{
		Round: rs.Round, Start: rs.Start, Commit: rs.Commit,
		Available: rs.Available, Participants: rs.Participants,
		Joined: rs.Joined, Left: rs.Left, Late: rs.Late,
		CatchUps: rs.CatchUps, StaleApplied: rs.StaleApplied,
		Dropped: rs.Dropped, Skipped: rs.Skipped,
		Bytes: rs.Bytes, Energy: rs.Energy, Loss: rs.Loss,
		Metric: rs.Metric, Evaluated: rs.Evaluated,
		ValMetric: rs.ValMetric, ValEvaluated: rs.ValEvaluated,
	}
}

// RowsFromTrainStats derives per-epoch rows from an epoch-trained session's
// record: epoch index, loss, and the epoch's wire bytes. Epoch trainers have
// no virtual clock, so Start/Commit stay zero.
func RowsFromTrainStats(stats *core.TrainStats) []RoundRow {
	rows := make([]RoundRow, 0, len(stats.Losses))
	for i, loss := range stats.Losses {
		row := RoundRow{Round: i, Loss: loss}
		if i < len(stats.EpochTraffic) {
			row.Bytes = stats.EpochTraffic[i].TotalBytes()
		}
		rows = append(rows, row)
	}
	return rows
}

// RunRecord is a loaded (or about-to-be-written) run record.
type RunRecord struct {
	Manifest Manifest
	Rounds   []RoundRow
	// Metrics is the final Prometheus scrape parsed into a flat
	// sample-name → value map (nil when the record carries no scrape).
	Metrics map[string]float64
}

// Writer streams a run record to a directory: the manifest is written up
// front, round rows append (and flush) as they commit, and Finish rewrites
// the manifest with the summary plus the final metrics scrape. A nil
// *Writer is valid and every method no-ops, so recording stays a
// one-line-per-call-site concern like the rest of internal/obs.
type Writer struct {
	dir      string
	manifest Manifest
	f        *os.File
	bw       *bufio.Writer
	rows     int
}

// NewWriter creates dir (and parents) and starts a record there with the
// given manifest context. An existing rounds.jsonl/manifest.json in dir is
// overwritten — re-recording into a directory replaces the old record.
func NewWriter(dir string, m Manifest) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, RoundsFile))
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return &Writer{dir: dir, manifest: m, f: f, bw: bufio.NewWriter(f)}, nil
}

// Dir reports the record's directory ("" on a nil writer).
func (w *Writer) Dir() string {
	if w == nil {
		return ""
	}
	return w.dir
}

// Round appends one row to rounds.jsonl and flushes it to the file, so an
// interrupted run keeps every committed round. No-op on a nil writer.
func (w *Writer) Round(row RoundRow) error {
	if w == nil {
		return nil
	}
	b, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if _, err := w.bw.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	w.rows++
	return nil
}

// Finish seals the record: the rounds file closes, the manifest is
// rewritten with the summary, and — when reg is non-nil — its final scrape
// lands in metrics.prom. No-op on a nil writer.
func (w *Writer) Finish(s Summary, reg *obs.Registry) error {
	if w == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("report: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	w.manifest.MetricName = s.MetricName
	w.manifest.FinalMetric = s.FinalMetric
	w.manifest.WallClock = s.WallClock
	w.manifest.TotalBytes = s.TotalBytes
	w.manifest.TotalEnergy = s.TotalEnergy
	if err := writeManifest(w.dir, w.manifest); err != nil {
		return err
	}
	if reg != nil {
		f, err := os.Create(filepath.Join(w.dir, MetricsFile))
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		err = reg.WritePrometheus(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	return nil
}

// writeManifest marshals the manifest to dir/manifest.json.
func writeManifest(dir string, m Manifest) error {
	f, err := os.Create(filepath.Join(dir, ManifestFile))
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(m)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("report: manifest: %w", err)
	}
	return nil
}

// LoadRunRecord reads the record in dir. A truncated final rounds.jsonl
// line — what a killed run leaves — is tolerated and reported in warnings;
// a malformed row anywhere else is an error. A missing metrics.prom leaves
// Metrics nil.
func LoadRunRecord(dir string) (*RunRecord, []string, error) {
	mb, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, nil, fmt.Errorf("report: %w", err)
	}
	rb, err := readOptional(filepath.Join(dir, RoundsFile))
	if err != nil {
		return nil, nil, err
	}
	pb, err := readOptional(filepath.Join(dir, MetricsFile))
	if err != nil {
		return nil, nil, err
	}
	return parseRunRecord(mb, rb, pb)
}

// readOptional reads the file at path; a file that does not exist reads as
// nil. An empty file reads as os.ReadFile's empty, non-nil slice.
func readOptional(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("report: %w", err)
	}
	return b, nil
}

// parseRunRecord decodes a record from the contents of its three files, as
// LoadRunRecord documents; rounds or metrics is nil when its file is
// missing.
func parseRunRecord(manifest, rounds, metrics []byte) (*RunRecord, []string, error) {
	rec := &RunRecord{}
	if err := json.Unmarshal(manifest, &rec.Manifest); err != nil {
		return nil, nil, fmt.Errorf("report: manifest: %w", err)
	}
	var warnings []string
	if rounds == nil {
		warnings = append(warnings, fmt.Sprintf("%s missing: record carries no per-round rows", RoundsFile))
	}
	lines := strings.Split(string(rounds), "\n")
	for i, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var row RoundRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			// A torn final line is the expected residue of a killed run:
			// keep the complete prefix and say so. Anything earlier is
			// corruption worth failing on.
			if i == len(lines)-1 || allBlankAfter(lines, i+1) {
				warnings = append(warnings,
					fmt.Sprintf("%s: truncated final row dropped (%d complete rounds kept)", RoundsFile, len(rec.Rounds)))
				break
			}
			return nil, nil, fmt.Errorf("report: %s line %d: %w", RoundsFile, i+1, err)
		}
		rec.Rounds = append(rec.Rounds, row)
	}
	if metrics != nil {
		m, err := obs.ParsePrometheus(string(metrics))
		if err != nil {
			return nil, nil, fmt.Errorf("report: %s: %w", MetricsFile, err)
		}
		rec.Metrics = m
	}
	return rec, warnings, nil
}

// allBlankAfter reports whether every line past i is whitespace — i.e. the
// row at i was the file's final content.
func allBlankAfter(lines []string, i int) bool {
	for ; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "" {
			return false
		}
	}
	return true
}
