package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"lumos/internal/core"
	"lumos/internal/nn"
)

// children lists the processes whose parent is this one.
func children(t *testing.T) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the process ended between the glob and the read
		}
		// pid (comm) state ppid …; comm may hold spaces, so split after ")".
		s := string(data)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) > 1 && fields[1] == strconv.Itoa(os.Getpid()) {
			out = append(out, s[:strings.LastIndexByte(s, ')')+1])
		}
	}
	return out
}

// miniature is a workload small enough for `go test`: 90 devices, three
// rounds, a few dozen queries — but every phase of a real run, including
// the hot-swap publisher goroutine.
func miniature(trainer trainer, sched core.Sched, topology string, serve serveKind) *workload {
	return &workload{
		name: "miniature", dataset: "facebook", scale: 0.004, task: core.Supervised, backbone: nn.GCN,
		mcmc: 10, trainer: trainer, sched: sched, rounds: 3, laps: 3,
		churn: 0.05, participation: 1, topology: topology,
		serve: serve, clients: 2, batch: 1, queriesPerLap: 40, publishesPerLap: 1,
	}
}

func TestRunLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two miniature workloads end to end")
	}
	saved := outDir
	outDir = filepath.Join(t.TempDir(), "out")
	defer func() { outDir = saved }()

	before := runtime.NumGoroutine()
	for _, w := range []*workload{
		miniature(trainEpochs, core.SchedSync, "", serveHTTPClassify),
		miniature(trainSim, core.SchedGossip, "ring:2", serveHTTPMixedSwap),
	} {
		for _, traced := range []bool{false, true} {
			run := endToEndRun
			if traced {
				run = tracedRun
			}
			res, err := run(w, dataSeed, 1, 1)
			if err != nil {
				t.Fatalf("%v traced=%v: %v", w.sched, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%v traced=%v: %d of %d operations failed: %v", w.sched, traced, res.failed, res.attempted, res.failures)
			}
		}
	}

	// Goroutines of a closed http.Server and Transport take a moment to
	// notice; wait for them, but not forever.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the runs, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
	if kids := children(t); len(kids) > 0 {
		t.Errorf("child processes left: %v", kids)
	}
	if dirs, _ := filepath.Glob(filepath.Join(outDir, "snap-*")); len(dirs) > 0 {
		t.Errorf("snapshot directories left: %v", dirs)
	}
	if liveSnapDir.Load() != nil {
		t.Error("liveSnapDir still names a directory")
	}
}
