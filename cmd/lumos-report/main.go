// Command lumos-report is the analysis half of observability: it reads the
// run records lumos-sim/lumos-train write with -run-out and the traces they
// write with -trace, and answers the questions the raw telemetry can't —
// which device bounded each round, where wall-clock went, and whether a
// change regressed a baseline.
//
// Subcommands:
//
//	lumos-report run <dir>            render a run record (summary, rounds,
//	                                  metrics) as aligned tables, or
//	                                  markdown with -md
//	lumos-report trace <file>         analyze a Chrome trace file: per-round
//	                                  critical paths (-critical-path),
//	                                  straggler-blame table, device
//	                                  utilization
//	lumos-report diff <a> <b>         compare two run records under
//	                                  regression thresholds; exits 1 when
//	                                  the candidate regresses, making it a
//	                                  CI-able A/B gate
//
// Usage:
//
//	lumos-sim -rounds 20 -run-out runs/base
//	lumos-report run runs/base -md
//	lumos-report trace out.trace.json -critical-path -top 5
//	lumos-report diff runs/base runs/candidate -wall-tol 0.05
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lumos/internal/eval"
	"lumos/internal/obs"
	"lumos/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		os.Exit(cmdRun(os.Args[2:]))
	case "trace":
		os.Exit(cmdTrace(os.Args[2:]))
	case "diff":
		os.Exit(cmdDiff(os.Args[2:]))
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "lumos-report: unknown subcommand %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  lumos-report run <dir> [-md]
  lumos-report trace <file> [-critical-path] [-top k] [-md]
  lumos-report diff <baseline> <candidate> [-md] [-metric-tol f] [-wall-tol f]
               [-bytes-tol f] [-energy-tol f] [-lower-better]
`)
}

// parseMixed parses a subcommand's arguments with flags and positionals
// interleaved in either order (the stdlib flag package stops at the first
// positional): it re-parses after each positional until everything is
// consumed, returning the positionals in order.
func parseMixed(fs *flag.FlagSet, args []string) []string {
	var pos []string
	for {
		fs.Parse(args) // ExitOnError: never returns on bad flags
		args = fs.Args()
		if len(args) == 0 {
			return pos
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
}

// render writes a table as text or markdown, separated by a blank line.
func render(t *eval.Table, md bool) {
	if md {
		t.RenderMarkdown(os.Stdout)
	} else {
		t.Render(os.Stdout)
	}
	fmt.Println()
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "lumos-report:", err)
	return 1
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("lumos-report run", flag.ExitOnError)
	md := fs.Bool("md", false, "render markdown tables instead of aligned text")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		usage(os.Stderr)
		return 2
	}
	rec, warnings, err := report.LoadRunRecord(pos[0])
	if err != nil {
		return fail(err)
	}
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "lumos-report: warning:", w)
	}
	m := rec.Manifest
	sum := &eval.Table{Title: "run " + pos[0], Columns: []string{"field", "value"}}
	sum.AddRow("tool", m.Tool)
	sum.AddRow("args", strings.Join(m.Args, " "))
	sum.AddRow("seed", m.Seed)
	if m.Dataset != "" {
		sum.AddRow("dataset", m.Dataset)
	}
	if m.Task != "" {
		sum.AddRow("task", m.Task)
	}
	if m.Sched != "" {
		sum.AddRow("sched", m.Sched)
	}
	if m.Fleet != "" {
		sum.AddRow("fleet", m.Fleet)
	}
	if m.Topology != "" {
		sum.AddRow("topology", m.Topology)
	}
	sum.AddRow("rounds", m.Rounds)
	sum.AddRow("go", fmt.Sprintf("%s GOMAXPROCS=%d NumCPU=%d", m.GoVersion, m.GOMAXPROCS, m.NumCPU))
	if m.MetricName != "" {
		sum.AddRow("final "+m.MetricName, m.FinalMetric)
	}
	sum.AddRow("wall-clock", m.WallClock)
	sum.AddRow("total bytes", m.TotalBytes)
	sum.AddRow("total energy", m.TotalEnergy)
	render(sum, *md)

	if len(rec.Rounds) > 0 {
		rt := &eval.Table{Title: "rounds", Columns: []string{
			"round", "commit", "parts", "bytes", "energy", "loss", "metric"}}
		for _, r := range rec.Rounds {
			metric := ""
			if r.Evaluated {
				metric = fmt.Sprintf("%.4f", r.Metric)
			}
			rt.AddRow(r.Round, r.Commit, r.Participants, r.Bytes, r.Energy, r.Loss, metric)
		}
		render(rt, *md)
	}

	if len(rec.Metrics) > 0 {
		fmt.Printf("metrics.prom: %d series recorded\n", len(rec.Metrics))
	}
	return 0
}

func cmdTrace(args []string) int {
	fs := flag.NewFlagSet("lumos-report trace", flag.ExitOnError)
	md := fs.Bool("md", false, "render markdown tables instead of aligned text")
	critical := fs.Bool("critical-path", false, "print each round's critical-path chain")
	top := fs.Int("top", 10, "straggler-blame table size")
	pos := parseMixed(fs, args)
	if len(pos) != 1 {
		usage(os.Stderr)
		return 2
	}
	events, err := obs.ReadEventsFile(pos[0])
	if err != nil {
		return fail(err)
	}
	an, err := report.AnalyzeTrace(events, *top)
	if err != nil {
		return fail(err)
	}
	printAnalysis(an, *critical, *md)
	return 0
}

// printAnalysis renders a TraceAnalysis: blame table, device utilization,
// and (optionally) the per-round critical paths.
func printAnalysis(an *report.TraceAnalysis, critical, md bool) {
	blame := &eval.Table{Title: "straggler blame (who bounded commits)",
		Columns: []string{"device", "rounds", "time", "share"}}
	for _, b := range an.Blame {
		share := 0.0
		if an.Span > 0 {
			share = b.Time / an.Span
		}
		blame.AddRow(b.Device, b.Rounds, b.Time, fmt.Sprintf("%.1f%%", share*100))
	}
	render(blame, md)

	if len(an.Devices) > 0 {
		ut := &eval.Table{Title: "device utilization",
			Columns: []string{"device", "busy", "queue-wait", "idle", "busy%", "queue%", "idle%"}}
		for _, d := range an.Devices {
			ut.AddRow(d.Device, d.Busy, d.QueueWait, d.Idle,
				fmt.Sprintf("%.1f%%", d.BusyFrac*100),
				fmt.Sprintf("%.1f%%", d.QueueFrac*100),
				fmt.Sprintf("%.1f%%", d.IdleFrac*100))
		}
		render(ut, md)
	}

	if critical {
		cp := &eval.Table{Title: "critical paths",
			Columns: []string{"round", "commit", "straggler", "chain"}}
		for _, r := range an.Rounds {
			chain := make([]string, 0, len(r.Spans))
			for _, s := range r.Spans {
				hop := s.Name
				switch {
				case s.Name == "gossip-delta" && s.To >= 0:
					hop = fmt.Sprintf("%s[d%d->d%d]", s.Name, s.Device, s.To)
				case s.Device >= 0:
					hop = fmt.Sprintf("%s[d%d]", s.Name, s.Device)
				}
				chain = append(chain, fmt.Sprintf("%s %.3f-%.3f", hop, s.Start, s.End))
			}
			straggler := "-"
			if r.Straggler >= 0 {
				straggler = fmt.Sprintf("d%d", r.Straggler)
			}
			if r.Skipped {
				straggler = "skipped"
			}
			cp.AddRow(r.Round, r.Commit, straggler, strings.Join(chain, " -> "))
		}
		render(cp, md)
	}
}

func cmdDiff(args []string) int {
	fs := flag.NewFlagSet("lumos-report diff", flag.ExitOnError)
	opt := report.DefaultDiffOptions()
	md := fs.Bool("md", false, "render markdown tables instead of aligned text")
	fs.Float64Var(&opt.MetricTol, "metric-tol", opt.MetricTol, "tolerated absolute final-metric drop")
	fs.Float64Var(&opt.WallTol, "wall-tol", opt.WallTol, "tolerated relative wall-clock growth")
	fs.Float64Var(&opt.BytesTol, "bytes-tol", opt.BytesTol, "tolerated relative total-bytes growth")
	fs.Float64Var(&opt.EnergyTol, "energy-tol", opt.EnergyTol, "tolerated relative total-energy growth")
	fs.BoolVar(&opt.LowerMetricBetter, "lower-better", opt.LowerMetricBetter, "treat a lower final metric as better (loss-like)")
	pos := parseMixed(fs, args)
	if len(pos) != 2 {
		usage(os.Stderr)
		return 2
	}
	a, warnA, err := report.LoadRunRecord(pos[0])
	if err != nil {
		return fail(err)
	}
	b, warnB, err := report.LoadRunRecord(pos[1])
	if err != nil {
		return fail(err)
	}
	for _, w := range append(warnA, warnB...) {
		fmt.Fprintln(os.Stderr, "lumos-report: warning:", w)
	}
	res := report.Diff(a, b, opt)

	dt := &eval.Table{Title: fmt.Sprintf("diff %s -> %s", pos[0], pos[1]),
		Columns: []string{"quantity", "baseline", "candidate", "delta", "rel", "verdict"}}
	for _, d := range res.Deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = "REGRESSED"
		}
		dt.AddRow(d.Name, d.A, d.B, d.Abs, fmt.Sprintf("%+.2f%%", d.Rel*100), verdict)
	}
	render(dt, *md)

	if res.RoundCountA != res.RoundCountB {
		fmt.Printf("round counts differ: baseline %d, candidate %d\n",
			res.RoundCountA, res.RoundCountB)
	}
	if len(res.Rounds) > 0 {
		// Show only rounds that moved, so a clean diff prints nothing here.
		moved := &eval.Table{Title: "per-round deltas (changed rounds only)",
			Columns: []string{"round", "commit delta", "loss delta", "bytes delta"}}
		for _, r := range res.Rounds {
			if r.CommitDelta == 0 && r.LossDelta == 0 && r.BytesDelta == 0 {
				continue
			}
			moved.AddRow(r.Round, r.CommitDelta, r.LossDelta, r.BytesDelta)
		}
		if len(moved.Rows) > 0 {
			render(moved, *md)
		}
	}

	if res.Regressed() {
		for _, r := range res.Regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		return 1
	}
	fmt.Println("no regressions")
	return 0
}
