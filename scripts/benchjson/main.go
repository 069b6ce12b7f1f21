// Command benchjson converts `go test -bench` output into a committed JSON
// artifact. It reads the benchmark stream on stdin, echoes it unchanged to
// stdout (so `make bench` still shows the live table), and writes a report
// with one entry per benchmark — ns/op, B/op, allocs/op, and any custom
// metrics (speedup×, workers, GFLOP/s, …) — plus run metadata (go version,
// GOMAXPROCS, NumCPU), so perf trajectories stay interpretable across boxes
// and toolchains.
//
// Usage:
//
//	go test -bench 'BenchmarkEpoch' -benchmem . | go run ./scripts/benchjson -out BENCH_epoch.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Benchmarks []benchResult `json:"benchmarks"`
	CPU        string        `json:"cpu,omitempty"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Args       []string      `json:"args"`
	GeneratedS int64         `json:"generated_unix"`
}

func main() {
	out := flag.String("out", "BENCH_epoch.json", "where to write the JSON report")
	flag.Parse()

	rep := report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Args:       os.Args[1:],
		GeneratedS: time.Now().Unix(),
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	failed := false
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		// A failing bench run prints FAIL (and --- FAIL: per test); refuse
		// to write a report from it so a broken `make bench` can't commit
		// an empty or stale artifact.
		if trimmed := strings.TrimSpace(line); trimmed == "FAIL" ||
			strings.HasPrefix(trimmed, "FAIL\t") || strings.HasPrefix(trimmed, "FAIL ") ||
			strings.HasPrefix(trimmed, "--- FAIL") {
			failed = true
		}
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = strings.TrimSpace(cpu)
			continue
		}
		if r, ok := parseBenchLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("reading stdin: %v", err)
	}
	if failed {
		fatalf("bench stream contains a FAIL line; refusing to write %s", *out)
	}
	if len(rep.Benchmarks) == 0 {
		fatalf("no benchmark lines found on stdin (did the bench run fail?)")
	}

	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		fatalf("encoding %s: %v", *out, err)
	}
	if err := f.Close(); err != nil {
		fatalf("closing %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// parseBenchLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   10   1234 ns/op   56 B/op   7 allocs/op   1.9 speedup×
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{
		Name:       strings.TrimSuffix(fields[0], fmt.Sprintf("-%d", runtime.GOMAXPROCS(0))),
		Iterations: iters,
	}
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
