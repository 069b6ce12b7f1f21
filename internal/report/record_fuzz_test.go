package report

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lumos/internal/obs"
)

// recordAllocBound is the most parsing a record of n input bytes may
// allocate: fixed bookkeeping plus a multiple of the input. The densest
// input is a rounds file of empty rows ("{}\n", 3 bytes each, a ~150-byte
// RoundRow in a doubling slice), which allocates ~330 B per input byte;
// nothing may be sized by a value the input names.
func recordAllocBound(n int) uint64 { return 64<<10 + 1024*uint64(n) }

// shortSimRecordFiles returns the three files writeRunRecord writes for
// shortSim's two-round run: manifest, rounds and metrics.
func shortSimRecordFiles(tb testing.TB) (manifest, rounds, metrics []byte) {
	reg := obs.New()
	res := shortSim(tb, nil, reg)
	var scrape bytes.Buffer
	if err := reg.WritePrometheus(&scrape); err != nil {
		tb.Fatal(err)
	}
	m, err := obs.ParsePrometheus(scrape.String())
	if err != nil {
		tb.Fatal(err)
	}
	rec := &RunRecord{
		Manifest: NewManifest("lumos-sim", []string{"-rounds", "2", "-seed", "5"}, 5, 1754000000),
		Metrics:  m,
	}
	rec.Manifest.MetricName, rec.Manifest.FinalMetric = res.Metric, res.FinalMetric
	rec.Manifest.WallClock, rec.Manifest.TotalBytes = res.WallClock, res.TotalBytes
	for _, rs := range res.Timeline {
		rec.Rounds = append(rec.Rounds, RowFromSim(rs))
	}
	dir := filepath.Join(tb.TempDir(), "rec")
	if err := writeRunRecord(dir, rec); err != nil {
		tb.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return read(ManifestFile), read(RoundsFile), read(MetricsFile)
}

// FuzzLoadRunRecord: parsing a record's three files gives an error or a
// record, never a panic, and never allocates past recordAllocBound. A
// record keeps at most one round per line of its rounds file.
func FuzzLoadRunRecord(f *testing.F) {
	manifest, rounds, metrics := shortSimRecordFiles(f)
	f.Add(manifest, rounds, metrics)
	f.Add(manifest, rounds[:len(rounds)-25], metrics) // a torn final row
	f.Add(manifest, []byte{}, metrics)                // an empty rounds file
	f.Fuzz(func(t *testing.T, manifest, rounds, metrics []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, _, err := parseRunRecord(manifest, rounds, metrics)
		runtime.ReadMemStats(&after)
		n := len(manifest) + len(rounds) + len(metrics)
		if got := after.TotalAlloc - before.TotalAlloc; !testing.Short() && got > recordAllocBound(n) {
			t.Fatalf("%d input bytes allocated %d B, bound %d (err %v)", n, got, recordAllocBound(n), err)
		}
		if err != nil {
			return
		}
		if rec == nil {
			t.Fatal("no error and no record")
		}
		if lines := bytes.Count(rounds, []byte("\n")) + 1; len(rec.Rounds) > lines {
			t.Fatalf("%d rounds from %d lines", len(rec.Rounds), lines)
		}
	})
}
