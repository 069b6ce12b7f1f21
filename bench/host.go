package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuSeconds is the process's user+system CPU time so far, from the
// scheduler's own accounting (CLOCK_PROCESS_CPUTIME_ID) rather than the
// tick-sampled rusage, so a 25 ms round still gets a usable reading.
func cpuSeconds() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// canarySink keeps the canary loop's result live.
var canarySink float64

// canaryMs times a fixed loop of eight independent multiply-add chains over
// an L1-resident array: no allocation, no memory traffic, as many
// instructions per cycle as Go will issue. It measures the host, not the
// repo. A dependent-chain integer loop moved 2 % when the VM's other vCPU got
// busy; this one goes from 5 to 7–9 ms, the way the training rounds do, so a
// run whose canary readings are high or far apart was disturbed and its
// other numbers should be read so.
func canaryMs() float64 {
	var a [256]float64
	for i := range a {
		a[i] = float64(i) * 0.001
	}
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	t0 := time.Now()
	for r := 0; r < 60000; r++ {
		for i := 0; i < len(a); i += 8 {
			s0 += a[i] * 1.0001
			s1 += a[i+1] * 1.0002
			s2 += a[i+2] * 1.0003
			s3 += a[i+3] * 1.0004
			s4 += a[i+4] * 1.0005
			s5 += a[i+5] * 1.0006
			s6 += a[i+6] * 1.0007
			s7 += a[i+7] * 1.0008
		}
	}
	ms := time.Since(t0).Seconds() * 1e3
	canarySink = s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
	return ms
}

// threads is GOMAXPROCS and the engine's worker count. One, on purpose: on
// the 2-vCPU box the numbers are taken on, two busy threads ran 30–70 %
// slower for minutes at a time (same binary, same inputs, the host deciding),
// while single-threaded runs repeated within ±4 %. A benchmark that cannot
// tell a 10 % regression from the host's mood measures nothing, so the
// parallel speed-up is left to `go test -bench BenchmarkEpochParallel`.
const threads = 1
