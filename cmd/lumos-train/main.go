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
	"os"
	"time"

	"lumos/internal/cli"
	"lumos/internal/core"
	"lumos/internal/graph"
	"lumos/internal/nn"
	"lumos/internal/obs"
	"lumos/internal/report"
	"lumos/internal/rng"
	"lumos/internal/snapshot"
)

func main() {
	data := cli.Data{Dataset: "facebook", Scale: 0.02, Seed: 7}
	model := cli.Model{Task: "supervised", Backbone: "gcn", Epsilon: 2, MCMC: 150}
	var engine cli.Engine
	var rec cli.Record
	data.Register(flag.CommandLine)
	model.Register(flag.CommandLine)
	engine.Register(flag.CommandLine)
	rec.Register(flag.CommandLine)
	var (
		epochs  = flag.Int("epochs", 60, "training epochs")
		noVN    = flag.Bool("no-virtual-nodes", false, "ablation: disable virtual nodes")
		noTT    = flag.Bool("no-tree-trimming", false, "ablation: disable tree trimming")
		save    = flag.String("save", "", "write trained model parameters to this file")
		publish = flag.String("publish", "", "publish a versioned serving snapshot to this file (atomic; version auto-increments)")
	)
	flag.Parse()

	cfg, err := model.Config()
	check(err)
	cfg.Workers, cfg.Epochs, cfg.Seed = engine.Workers, *epochs, data.Seed
	cfg.DisableVirtualNodes, cfg.DisableTreeTrimming = *noVN, *noTT

	g, err := data.Load()
	check(err)
	st := g.ComputeStats()
	fmt.Printf("dataset %s: N=%d M=%d avgdeg=%.1f maxdeg=%d classes=%d features=%d\n",
		g.Name, st.N, st.M, st.AvgDeg, st.MaxDeg, st.Classes, st.FeatureDim)

	// Telemetry is opt-in: the default (no -trace, no -metrics) leaves both
	// nil and training bit-identical to an uninstrumented run.
	run, err := rec.Start(cli.Manifest("lumos-train", g.Name, cfg, *epochs), false, false)
	check(err)
	cfg.Metrics, cfg.Tracer = run.Metrics, run.Tracer
	if run.Tracer != nil || run.Metrics != nil {
		hookPublishTelemetry(run.Tracer, run.Metrics)
	}

	rng := rng.New(data.Seed)
	start := time.Now()
	var (
		runStats    *core.TrainStats
		finalMetric float64
		metricName  string
	)
	switch cfg.Task {
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
		maybePublish(*publish, sys, g.Name, data.Seed, *epochs, acc, "accuracy")
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
		maybePublish(*publish, sys, g.Name, data.Seed, *epochs, auc, "roc-auc")
		runStats, finalMetric, metricName = stats, auc, "roc-auc"
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	var totalBytes int64
	for _, row := range report.RowsFromTrainStats(runStats) {
		check(run.Round(row))
		totalBytes += row.Bytes
	}
	check(run.Finish(report.Summary{
		MetricName: metricName, FinalMetric: finalMetric,
		WallClock:  runStats.MeasuredTime.Seconds(),
		TotalBytes: totalBytes,
	}))
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
