// Command bench is the repo's end-to-end benchmark: one process, no
// children, that walks a workload through generate → core.NewSystem → train →
// snapshot publish → serve queries, checks the outputs, and prints every
// metric by name with its unit. BENCHMARK.json at the repo root is its
// contract; README.md in this directory explains the workloads, the
// estimators and how to read the output.
//
//	bench -workload epoch-gcn-secure -seed 3 -seconds 22 -trace 0   # 13 end-to-end metrics
//	bench -workload epoch-gcn-secure -seed 3 -seconds 22 -trace 1   # per-layer metrics + bench/out/<workload>.trace.json
//	bench -selfcheck                                                # every workload twice, compared against the bounds
//	bench -list                                                     # workload names
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// outDir holds what a run leaves behind (traces) and, while it runs, its
// snapshot directory. Relative to the working directory, which the contract
// makes the repo root.
var outDir = filepath.Join("bench", "out")

// result is one run's metrics and operation counts.
type result struct {
	workload  string
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
	notes     []string
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 7, "query-stream seed: which vertices and pairs the clients ask for")
		dseed     = flag.Int64("dataseed", dataSeed, "dataset/model/fleet seed; the committed numbers use the default")
		seconds   = flag.Int("seconds", nominalSeconds, "measuring time the lap count is scaled to")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, telemetry off; 1: per-layer metrics from the traced run")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and fail if an end-to-end metric moves by more than its bound")
		list      = flag.Bool("list", false, "print the workload names and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(threads)

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-20s %s\n", w.name, w.why)
		}
		return
	case *selfcheck:
		os.Exit(selfCheck(*dseed, *seed, *seconds))
	}
	w := findWorkload(*name)
	if w == nil {
		fatalf("unknown workload %q (see -list)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}

	defer armDeadline(w.name, *seconds).Stop()

	var res *result
	var err error
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		res, err = tracedRun(w, *dseed, *seed, *seconds)
	} else {
		res, err = endToEndRun(w, *dseed, *seed, *seconds)
	}
	if err != nil {
		removeSnapDirs()
		fatalf("%s: %v", w.name, err)
	}
	printResult(os.Stdout, res, defs)
}

// armDeadline starts one workload run's deadline: several times its
// measuring time, inside the contract's 180 s. A run that hangs is worse
// than one that fails, so past the deadline the process removes what the run
// made and exits non-zero without a result. Stop the timer when the run ends.
func armDeadline(name string, seconds int) *time.Timer {
	d := time.Duration(4*seconds+30) * time.Second
	if d > 170*time.Second {
		d = 170 * time.Second
	}
	return time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v deadline\n", name, d)
		removeSnapDirs()
		os.Exit(3)
	})
}

// liveSnapDir is the snapshot directory of the run in progress, for the
// exit paths that cannot run its deferred cleanup.
var liveSnapDir atomic.Pointer[string]

func removeSnapDirs() {
	if dir := liveSnapDir.Load(); dir != nil {
		os.RemoveAll(*dir)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// printResult prints every metric by name with its unit, the notes and any
// failures, then the contract's one-line JSON object last.
func printResult(out *os.File, res *result, defs []metricDef) {
	fmt.Fprintf(out, "workload %s\n", res.workload)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v := res.values[d.name]
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = jsonMetric{v, d.unit}
	}
	for _, n := range res.notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
	for _, f := range res.failures {
		fmt.Fprintf(out, "  ! %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Fprintf(out, "%s\n", line)
}
