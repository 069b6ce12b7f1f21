// Package cli holds the flag groups the lumos-* commands share, one per
// concept: the dataset and seed (Data), the model and its privacy knobs
// (Model), the training engine (Engine), and telemetry with run recording
// (Record). A group is a struct whose field values are the calling
// command's defaults; Register binds the group's flags to those fields, and
// the group's methods turn the parsed values into what the command runs:
// the dataset, a core.Config, and one run's tracer, registry, run record
// and metrics output. A flag only one command uses stays in that command.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/obs"
	"lumos/internal/report"
)

// register binds a group's flags: the ones named in only, or all of them
// when only is empty. Naming a flag the group does not have is a bug in the
// calling command, so it panics.
func register(binds map[string]func(), only []string) {
	if len(only) == 0 {
		for _, bind := range binds {
			bind()
		}
		return
	}
	for _, name := range only {
		bind, ok := binds[name]
		if !ok {
			panic("cli: the group has no flag -" + name)
		}
		bind()
	}
}

// Data selects the dataset and seeds the run: -dataset, -scale, -seed.
type Data struct {
	Dataset string
	Scale   float64
	Seed    int64
}

// Register binds -dataset, -scale and -seed to d on fs, or only the named
// ones (lumos-bench takes just -seed).
func (d *Data) Register(fs *flag.FlagSet, only ...string) {
	register(map[string]func(){
		"dataset": func() {
			fs.StringVar(&d.Dataset, "dataset", d.Dataset, "facebook|lastfm|file:<path> (a file lumos-datagen -out wrote)")
		},
		"scale": func() { fs.Float64Var(&d.Scale, "scale", d.Scale, "dataset preset scale (0,1]") },
		"seed":  func() { fs.Int64Var(&d.Seed, "seed", d.Seed, "seed of the dataset generator and of every run RNG") },
	}, only)
}

// Load materializes the selected dataset.
func (d *Data) Load() (*graph.Graph, error) {
	return graph.LoadDataset(d.Dataset, d.Scale, d.Seed)
}

// Model selects the objective, the GNN backbone and the privacy and
// tree-trimming knobs: -task, -backbone, -eps, -mcmc, -secure.
type Model struct {
	Task     string
	Backbone string
	Epsilon  float64
	MCMC     int
	Secure   bool
}

// Register binds -task, -backbone, -eps, -mcmc and -secure to m on fs, or
// only the named ones.
func (m *Model) Register(fs *flag.FlagSet, only ...string) {
	register(map[string]func(){
		"task":     func() { fs.StringVar(&m.Task, "task", m.Task, "training objective: supervised|unsupervised") },
		"backbone": func() { fs.StringVar(&m.Backbone, "backbone", m.Backbone, "gcn|gat") },
		"eps":      func() { fs.Float64Var(&m.Epsilon, "eps", m.Epsilon, "privacy budget epsilon") },
		"mcmc": func() {
			fs.IntVar(&m.MCMC, "mcmc", m.MCMC, "MCMC tree-trimming iterations (paper: 1000 Facebook, 300 LastFM)")
		},
		"secure": func() {
			fs.BoolVar(&m.Secure, "secure", m.Secure, "run real OT-based secure comparisons (slower, same results)")
		},
	}, only)
}

// Config returns the system config the model flags select.
func (m *Model) Config() (core.Config, error) {
	task, err := core.ParseTask(strings.ToLower(m.Task))
	if err != nil {
		return core.Config{}, err
	}
	bb, err := nn.ParseBackbone(m.Backbone)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Task: task, Backbone: bb,
		Epsilon: m.Epsilon, MCMCIterations: m.MCMC, SecureCompare: m.Secure,
	}, nil
}

// Engine sizes the training engine: -workers, which every trainer binds.
type Engine struct {
	Workers int
}

// Register binds -workers to e on fs.
func (e *Engine) Register(fs *flag.FlagSet) {
	fs.IntVar(&e.Workers, "workers", e.Workers, "training worker pool size (0 = one per CPU; results identical)")
}

// Record asks for a run's telemetry and run record: -trace, -metrics,
// -metrics-out, -run-out.
type Record struct {
	Trace      string
	Metrics    bool
	MetricsOut string
	RunOut     string
}

// Register binds -trace, -metrics, -metrics-out and -run-out to r on fs.
func (r *Record) Register(fs *flag.FlagSet) {
	fs.StringVar(&r.Trace, "trace", r.Trace, "write the run's spans as Chrome trace-event JSON, viewable in Perfetto (with lumos-sim -sched both the mode is inserted before the extension)")
	fs.BoolVar(&r.Metrics, "metrics", r.Metrics, "print the run's metrics in Prometheus text format at the end")
	fs.StringVar(&r.MetricsOut, "metrics-out", r.MetricsOut, "write the run's metrics in Prometheus text format to this file (with lumos-sim -sched both the mode is inserted before the extension)")
	fs.StringVar(&r.RunOut, "run-out", r.RunOut, "record the run to this directory (manifest.json, rounds.jsonl, metrics.prom) for lumos-report; with lumos-sim -sched both the mode is appended to the directory name")
}

// Manifest starts the run-record manifest of tool's run from the loaded
// dataset's name, the run's system config (seed, task, backbone, schedule)
// and its configured round or epoch count.
func Manifest(tool, dataset string, cfg core.Config, rounds int) report.Manifest {
	m := report.NewManifest(tool, os.Args[1:], cfg.Seed, time.Now().Unix())
	m.Dataset, m.Task, m.Backbone = dataset, cfg.Task.String(), strings.ToLower(cfg.Backbone.String())
	m.Sched, m.Rounds = cfg.Sched.String(), rounds
	return m
}

// Run is one run's telemetry, opened by Record.Start. Tracer and Metrics
// are nil unless a flag asks for them, and a nil instrument costs nothing,
// so the run trains bit-identically either way.
type Run struct {
	Tracer  *obs.Tracer
	Metrics *obs.Registry

	flags     Record
	simulated bool
	sched     string
	suffix    string // inserted into every output path; "" for a command's only run
	w         *report.Writer
	rows      int
}

// Start opens the telemetry of the run m describes: a tracer under -trace,
// a registry under -metrics, -metrics-out or -run-out (a run record holds
// the final scrape), and the run-record writer under -run-out. A simulated
// run traces on the simulator's virtual clock and counts rounds; an epoch
// trainer's traces on the wall clock and counts epochs. perMode inserts
// m.Sched into every output path, for a command that records one run per
// scheduling mode.
func (r *Record) Start(m report.Manifest, simulated, perMode bool) (*Run, error) {
	run := &Run{flags: *r, simulated: simulated, sched: m.Sched}
	if perMode {
		run.suffix = m.Sched
	}
	if r.Trace != "" {
		if simulated {
			run.Tracer = obs.NewVirtualTracer()
		} else {
			run.Tracer = obs.NewTracer()
		}
	}
	if r.Metrics || r.MetricsOut != "" || r.RunOut != "" {
		run.Metrics = obs.New()
	}
	if r.RunOut != "" {
		w, err := report.NewWriter(run.path(r.RunOut), m)
		if err != nil {
			return nil, err
		}
		run.w = w
	}
	return run, nil
}

// path inserts the run's suffix before the extension ("out.trace.json" ->
// "out.trace.sync.json", "runs/a" -> "runs/a.sync").
func (r *Run) path(p string) string {
	if r.suffix == "" {
		return p
	}
	ext := filepath.Ext(p)
	return strings.TrimSuffix(p, ext) + "." + r.suffix + ext
}

// Round appends one committed round (or epoch) to the run record; it is a
// no-op without -run-out.
func (r *Run) Round(row report.RoundRow) error {
	if r.w == nil {
		return nil
	}
	r.rows++
	return r.w.Round(row)
}

// Finish writes what the flags asked for, reporting each on stdout: the
// trace file, the sealed run record with summary s, the -metrics-out file,
// and the -metrics dump.
func (r *Run) Finish(s report.Summary) error {
	if r.Tracer != nil {
		out := r.path(r.flags.Trace)
		if err := r.Tracer.WriteFile(out); err != nil {
			return err
		}
		fmt.Printf("trace: wrote %d events to %s\n", r.Tracer.Len(), out)
	}
	if r.w != nil {
		if err := r.w.Finish(s, r.Metrics); err != nil {
			return err
		}
		unit := "epochs"
		if r.simulated {
			unit = "rounds"
		}
		fmt.Printf("run record: %s (%d %s)\n", r.w.Dir(), r.rows, unit)
	}
	if r.flags.MetricsOut != "" {
		out := r.path(r.flags.MetricsOut)
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		err = r.Metrics.WritePrometheus(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("metrics: wrote %s\n", out)
	}
	if r.flags.Metrics {
		if r.simulated {
			fmt.Printf("metrics (%s scheduling):\n", r.sched)
		} else {
			fmt.Println("metrics:")
		}
		return r.Metrics.WritePrometheus(os.Stdout)
	}
	return nil
}
