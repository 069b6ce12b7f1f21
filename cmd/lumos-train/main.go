// Command lumos-train trains one Lumos configuration end to end and prints
// the learning curve, evaluation metric, and system-cost statistics.
//
// Usage:
//
//	lumos-train -dataset facebook -scale 0.02 -backbone gcn -epochs 60
//	lumos-train -dataset lastfm -task unsupervised -eps 4
//	lumos-train -dataset facebook -save model.bin
//	lumos-train -dataset facebook -publish model.snap   # serve with lumos-serve
//	lumos-train -epochs 20 -trace train.trace.json -metrics
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/obs"
	"lumos/internal/report"
	"lumos/internal/snapshot"
)

func main() {
	var (
		dataset    = flag.String("dataset", "facebook", "facebook|lastfm|file:<path>")
		scale      = flag.Float64("scale", 0.02, "dataset preset scale (0,1]")
		task       = flag.String("task", "supervised", "supervised|unsupervised")
		backbone   = flag.String("backbone", "gcn", "gcn|gat")
		epochs     = flag.Int("epochs", 60, "training epochs")
		eps        = flag.Float64("eps", 2, "privacy budget epsilon")
		mcmc       = flag.Int("mcmc", 150, "MCMC tree-trimming iterations")
		secure     = flag.Bool("secure", false, "run real OT-based secure comparisons")
		noVN       = flag.Bool("no-virtual-nodes", false, "ablation: disable virtual nodes")
		noTT       = flag.Bool("no-tree-trimming", false, "ablation: disable tree trimming")
		seed       = flag.Int64("seed", 7, "run seed")
		save       = flag.String("save", "", "write trained model parameters to this file")
		publish    = flag.String("publish", "", "publish a versioned serving snapshot to this file (atomic; version auto-increments)")
		workers    = flag.Int("workers", 0, "training worker pool size (0 = one per CPU; results identical)")
		sched      = flag.String("sched", "sync", "round scheduling: sync|async (staleness-bounded)")
		stale      = flag.Int("staleness", 0, "async gradient staleness bound in epochs (0 = default)")
		tracePth   = flag.String("trace", "", "write per-epoch spans and publish events as Chrome trace-event JSON (viewable in Perfetto)")
		metricsOn  = flag.Bool("metrics", false, "print the run's metrics in Prometheus text format at the end")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics in Prometheus text format to this file")
		runOut     = flag.String("run-out", "", "record the run to this directory (manifest.json, rounds.jsonl, metrics.prom) for lumos-report")
	)
	flag.Parse()

	schedMode, err := core.ParseSched(*sched)
	if err != nil {
		fatalf("%v", err)
	}
	taskKind, err := core.ParseTask(strings.ToLower(*task))
	if err != nil {
		fatalf("%v", err)
	}

	g, err := graph.LoadDataset(*dataset, *scale, *seed)
	check(err)
	st := g.ComputeStats()
	fmt.Printf("dataset %s: N=%d M=%d avgdeg=%.1f maxdeg=%d classes=%d features=%d\n",
		g.Name, st.N, st.M, st.AvgDeg, st.MaxDeg, st.Classes, st.FeatureDim)

	// Telemetry is opt-in: the default (no -trace, no -metrics) leaves both
	// nil and training bit-identical to an uninstrumented run.
	var tr *obs.Tracer
	var reg *obs.Registry
	if *tracePth != "" {
		tr = obs.NewTracer()
	}
	// A run record wants the final scrape too, so -run-out implies a
	// registry; telemetry is bit-identical either way.
	if *metricsOn || *metricsOut != "" || *runOut != "" {
		reg = obs.New()
	}
	if tr != nil || reg != nil {
		hookPublishTelemetry(tr, reg)
	}

	cfg := core.Config{
		Task:    taskKind,
		Epsilon: *eps, Epochs: *epochs, MCMCIterations: *mcmc,
		SecureCompare: *secure, DisableVirtualNodes: *noVN, DisableTreeTrimming: *noTT,
		Workers: *workers, Sched: schedMode, Staleness: *stale,
		Metrics: reg, Tracer: tr,
		Seed: *seed,
	}
	switch strings.ToLower(*backbone) {
	case "gcn":
		cfg.Backbone = nn.GCN
	case "gat":
		cfg.Backbone = nn.GAT
	default:
		fatalf("unknown backbone %q", *backbone)
	}

	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()
	var (
		runStats    *core.TrainStats
		finalMetric float64
		metricName  string
	)
	switch taskKind {
	case core.Supervised:
		split, err := graph.SplitNodes(g, 0.5, 0.25, rng)
		check(err)
		sys, err := core.NewSystem(g, g, cfg)
		check(err)
		fmt.Printf("trees: max workload %d (untrimmed max degree %d), secure comparisons %d\n",
			sys.Balanced.MaxWorkload(), st.MaxDeg, sys.Balanced.SMC.Comparisons)
		stats, err := sys.TrainSupervised(split)
		check(err)
		acc, err := sys.EvaluateAccuracy(split.IsTest)
		check(err)
		printStats(stats, *epochs)
		fmt.Printf("test accuracy: %.4f\n", acc)
		maybeSave(*save, sys)
		maybePublish(*publish, sys, g.Name, *seed, *epochs, acc, "accuracy")
		runStats, finalMetric, metricName = stats, acc, "accuracy"
	case core.Unsupervised:
		es, err := graph.SplitEdges(g, 0.8, 0.05, rng)
		check(err)
		sys, err := core.NewSystem(es.TrainGraph, g, cfg)
		check(err)
		fmt.Printf("trees: max workload %d (untrimmed max degree %d)\n",
			sys.Balanced.MaxWorkload(), st.MaxDeg)
		stats, err := sys.TrainUnsupervised(es)
		check(err)
		auc, err := sys.EvaluateAUC(es.Test, es.TestNeg)
		check(err)
		printStats(stats, *epochs)
		fmt.Printf("test ROC-AUC: %.4f\n", auc)
		maybeSave(*save, sys)
		maybePublish(*publish, sys, g.Name, *seed, *epochs, auc, "roc-auc")
		runStats, finalMetric, metricName = stats, auc, "roc-auc"
	default:
		fatalf("unknown task %q", *task)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if tr != nil {
		check(tr.WriteFile(*tracePth))
		fmt.Printf("trace: wrote %d events to %s\n", tr.Len(), *tracePth)
	}
	if *runOut != "" {
		m := report.NewManifest("lumos-train", os.Args[1:], *seed, time.Now().Unix())
		m.Dataset, m.Task, m.Backbone = g.Name, taskKind.String(), strings.ToLower(*backbone)
		m.Sched, m.Rounds = schedMode.String(), *epochs
		rw, err := report.NewWriter(*runOut, m)
		check(err)
		rows := report.RowsFromTrainStats(runStats)
		var totalBytes int64
		for _, row := range rows {
			check(rw.Round(row))
			totalBytes += row.Bytes
		}
		check(rw.Finish(report.Summary{
			MetricName: metricName, FinalMetric: finalMetric,
			WallClock:  runStats.MeasuredTime.Seconds(),
			TotalBytes: totalBytes,
		}, reg))
		fmt.Printf("run record: %s (%d epochs)\n", rw.Dir(), len(rows))
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		check(err)
		check(reg.WritePrometheus(f))
		check(f.Close())
		fmt.Printf("metrics: wrote %s\n", *metricsOut)
	}
	if *metricsOn {
		fmt.Println("metrics:")
		check(reg.WritePrometheus(os.Stdout))
	}
}

// hookPublishTelemetry routes snapshot publishes into the run's metrics
// and trace: a publish counter/size/duration, and a timeline instant.
func hookPublishTelemetry(tr *obs.Tracer, reg *obs.Registry) {
	pubs := reg.Counter("lumos_publish_total",
		"Versioned snapshots published")
	pubBytes := reg.Counter("lumos_publish_bytes_total",
		"Bytes of published snapshots")
	pubTime := reg.Histogram("lumos_publish_seconds",
		"Wall-clock time of one atomic snapshot publish", obs.LatencyBuckets)
	snapshot.PublishObserver = func(path string, version uint64, bytes int64, elapsed time.Duration) {
		pubs.Inc()
		pubBytes.Add(bytes)
		pubTime.Observe(elapsed.Seconds())
		if tr != nil {
			tr.Instant(0, "publish", "snapshot-publish", tr.Now(),
				map[string]any{"version": version, "bytes": bytes, "path": path})
		}
	}
}

func printStats(stats *core.TrainStats, epochs int) {
	n := len(stats.Losses)
	fmt.Printf("loss: %.4f -> %.4f over %d epochs\n", stats.Losses[0], stats.Losses[n-1], n)
	fmt.Printf("avg comm rounds per device per epoch: %.1f\n", stats.AvgCommRoundsPerDevice)
	fmt.Printf("estimated epoch time (straggler model): %v\n", stats.SimEpochTime.Round(time.Microsecond))
	fmt.Printf("measured training time: %v (%v/epoch)\n",
		stats.MeasuredTime.Round(time.Millisecond),
		(stats.MeasuredTime / time.Duration(epochs)).Round(time.Microsecond))
}

func maybeSave(path string, sys *core.System) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	check(err)
	if err := nn.SaveParams(f, sys); err != nil {
		f.Close()
		fatalf("%v", err)
	}
	// A failed close can mean buffered bytes never hit the disk; a silently
	// truncated checkpoint is worse than no checkpoint.
	check(f.Close())
	fmt.Printf("saved model parameters to %s\n", path)
}

func maybePublish(path string, sys *core.System, dataset string, seed int64, round int, metric float64, metricName string) {
	if path == "" {
		return
	}
	snap, err := snapshot.Capture(sys, snapshot.Meta{
		Dataset: dataset, Seed: seed, Round: round,
		Metric: metric, MetricName: metricName,
		CreatedUnix: time.Now().Unix(),
	})
	check(err)
	v, err := snapshot.PublishNext(path, snap)
	check(err)
	fmt.Printf("published snapshot v%d to %s\n", v, path)
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lumos-train: "+format+"\n", args...)
	os.Exit(1)
}
