package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lumos/internal/core"
	"lumos/internal/nn"
	"lumos/internal/report"
)

// newFlagSet returns a silent FlagSet that reports parse errors.
func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(new(strings.Builder))
	return fs
}

func flagNames(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// TestGroupsBindDefaultsAndParse checks that every group registers its
// flags with the struct's values as defaults and parses into the struct.
func TestGroupsBindDefaultsAndParse(t *testing.T) {
	data := Data{Dataset: "facebook", Scale: 0.02, Seed: 7}
	model := Model{Task: "supervised", Backbone: "gcn", Epsilon: 2, MCMC: 150}
	engine := Engine{Workers: 3}
	var rec Record
	fs := newFlagSet()
	data.Register(fs)
	model.Register(fs)
	engine.Register(fs)
	rec.Register(fs)

	want := "backbone dataset eps mcmc metrics metrics-out run-out scale secure seed task trace workers"
	if got := strings.Join(flagNames(fs), " "); got != want {
		t.Fatalf("flags %q, want %q", got, want)
	}
	for name, def := range map[string]string{
		"dataset": "facebook", "scale": "0.02", "seed": "7", "task": "supervised",
		"backbone": "gcn", "eps": "2", "mcmc": "150", "secure": "false",
		"workers": "3", "trace": "", "metrics": "false",
	} {
		if got := fs.Lookup(name).DefValue; got != def {
			t.Errorf("-%s default %q, want %q", name, got, def)
		}
	}

	err := fs.Parse([]string{"-dataset", "lastfm", "-scale", "0.5", "-seed", "3",
		"-task", "unsupervised", "-backbone", "gat", "-eps", "4", "-mcmc", "9", "-secure",
		"-workers", "2",
		"-trace", "t.json", "-metrics", "-metrics-out", "m.prom", "-run-out", "rec"})
	if err != nil {
		t.Fatal(err)
	}
	if data != (Data{"lastfm", 0.5, 3}) ||
		model != (Model{"unsupervised", "gat", 4, 9, true}) ||
		engine != (Engine{2}) ||
		rec != (Record{"t.json", true, "m.prom", "rec"}) {
		t.Fatalf("parsed %+v %+v %+v %+v", data, model, engine, rec)
	}
}

// TestRegisterOnly checks that a command can take a subset of a group, and
// that naming a flag the group lacks panics.
func TestRegisterOnly(t *testing.T) {
	fs := newFlagSet()
	var data Data
	var model Model
	data.Register(fs, "seed")
	model.Register(fs, "eps", "mcmc", "secure")
	if got := strings.Join(flagNames(fs), " "); got != "eps mcmc secure seed" {
		t.Fatalf("flags %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering an unknown flag did not panic")
		}
	}()
	data.Register(newFlagSet(), "epochs")
}

func TestModelConfig(t *testing.T) {
	cfg, err := (&Model{Task: "Link", Backbone: "GAT", Epsilon: 4, MCMC: 9, Secure: true}).Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Task != core.Unsupervised || cfg.Backbone != nn.GAT || cfg.Epsilon != 4 ||
		cfg.MCMCIterations != 9 || !cfg.SecureCompare {
		t.Fatalf("config %+v", cfg)
	}
	for _, m := range []Model{{Task: "nope", Backbone: "gcn"}, {Task: "supervised", Backbone: "mlp"}} {
		if _, err := m.Config(); err == nil {
			t.Errorf("%+v: no error", m)
		}
	}
}

func TestManifest(t *testing.T) {
	cfg := core.Config{Task: core.Unsupervised, Backbone: nn.GAT, Sched: core.SchedAsync, Seed: 11}
	m := Manifest("lumos-test", "facebook-like(x0.01)", cfg, 30)
	if m.Tool != "lumos-test" || m.Seed != 11 || m.Dataset != "facebook-like(x0.01)" ||
		m.Task != "unsupervised" || m.Backbone != "gat" || m.Sched != "async" || m.Rounds != 30 {
		t.Fatalf("manifest %+v", m)
	}
}

// TestRecordStartWithoutFlags: no telemetry flag, no instrument and no file.
func TestRecordStartWithoutFlags(t *testing.T) {
	var rec Record
	run, err := rec.Start(report.Manifest{Sched: "sync"}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if run.Tracer != nil || run.Metrics != nil {
		t.Fatal("instruments without a flag asking for them")
	}
	if err := run.Round(report.RoundRow{}); err != nil {
		t.Fatal(err)
	}
	if err := run.Finish(report.Summary{}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordPerModePaths checks that a per-mode run writes its trace,
// record and metrics file under paths carrying the mode, and that the
// record holds the streamed rows and the summary.
func TestRecordPerModePaths(t *testing.T) {
	dir := t.TempDir()
	rec := Record{
		Trace:      filepath.Join(dir, "out.trace.json"),
		MetricsOut: filepath.Join(dir, "m.prom"),
		RunOut:     filepath.Join(dir, "rec"),
	}
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	stdout := os.Stdout
	os.Stdout = devNull
	defer func() { os.Stdout = stdout }()
	for _, mode := range []string{"sync", "async"} {
		run, err := rec.Start(report.Manifest{Tool: "lumos-test", Sched: mode}, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if run.Tracer == nil || run.Metrics == nil {
			t.Fatal("missing instruments")
		}
		for r := 0; r < 3; r++ {
			if err := run.Round(report.RoundRow{Round: r, Loss: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := run.Finish(report.Summary{MetricName: "accuracy", FinalMetric: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"out.trace.sync.json", "out.trace.async.json", "m.sync.prom", "m.async.prom"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
	got, _, err := report.LoadRunRecord(filepath.Join(dir, "rec.async"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rounds) != 3 || got.Manifest.Sched != "async" || got.Manifest.FinalMetric != 0.5 {
		t.Fatalf("record %+v", got)
	}
}
