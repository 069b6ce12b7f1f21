// Command lumos-datagen generates, inspects, and stores the synthetic
// datasets that stand in for the paper's Facebook page-page and LastFM Asia
// crawls, plus sample device-fleet traces for the scenario simulator.
//
// Usage:
//
//	lumos-datagen -dataset facebook -scale 0.1             # stats only
//	lumos-datagen -dataset lastfm -out lastfm.bin          # save to disk
//	lumos-datagen -dataset file:lastfm.bin                 # inspect a file
//	lumos-datagen -traces -devices 48 -out fleet.csv       # fleet trace
//	lumos-datagen -traces -devices 8                       # trace to stdout
//
// -traces writes a FedScale-style fleet trace (internal/fleet schema:
// per-device compute/bandwidth/latency/power multipliers plus an optional
// periodic availability cycle) in CSV, or JSON when -out ends in .json —
// the file lumos-sim consumes via -fleet trace:<path>. The sample fleet
// mixes mid-range, flagship (fast, power-hungry), and constrained diurnal
// devices, deterministically from -seed, so tests and the smoke suite
// never depend on external downloads.
package main

import (
	"flag"
	"fmt"
	"os"

	"lumos/internal/cli"
	"lumos/internal/fleet"
	"lumos/internal/metrics"
)

func main() {
	data := cli.Data{Dataset: "facebook", Scale: 0.1, Seed: 1}
	data.Register(flag.CommandLine)
	var (
		out     = flag.String("out", "", "write the dataset (or trace) to this file")
		traces  = flag.Bool("traces", false, "emit a sample device-fleet trace instead of a dataset")
		devices = flag.Int("devices", 48, "trace mode: number of devices to sample")
	)
	flag.Parse()

	if *traces {
		emitTrace(*devices, data.Seed, *out)
		return
	}

	g, err := data.Load()
	check(err)

	st := g.ComputeStats()
	fmt.Printf("name:          %s\n", g.Name)
	fmt.Printf("vertices:      %d\n", st.N)
	fmt.Printf("edges:         %d\n", st.M)
	fmt.Printf("avg degree:    %.2f\n", st.AvgDeg)
	fmt.Printf("max degree:    %d\n", st.MaxDeg)
	fmt.Printf("degree gini:   %.3f\n", st.DegreeGini)
	fmt.Printf("top-1%% degree: %.1f%% of all edges\n", 100*st.Top1PctDegreeMass)
	fmt.Printf("features:      %d\n", st.FeatureDim)
	fmt.Printf("classes:       %d\n", st.Classes)

	cdf := metrics.NewCDF(g.Degrees())
	fmt.Printf("degree quantiles: p50=%d p90=%d p99=%d max=%d\n",
		cdf.Quantile(0.5), cdf.Quantile(0.9), cdf.Quantile(0.99), cdf.Max())

	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		check(g.Write(f))
		check(f.Close())
		fi, err := os.Stat(*out)
		check(err)
		fmt.Printf("wrote %s (%d bytes)\n", *out, fi.Size())
	}
}

// emitTrace samples a deterministic fleet trace and writes it to path (CSV,
// or JSON when the extension is .json), or to stdout as CSV when path is
// empty. A summary of the sampled population is printed either way.
func emitTrace(devices int, seed int64, path string) {
	tr, err := fleet.SampleTrace(devices, seed)
	check(err)
	cycled, minC, maxC := 0, tr.Devices[0].Compute, tr.Devices[0].Compute
	for _, p := range tr.Devices {
		if p.Period > 0 {
			cycled++
		}
		if p.Compute < minC {
			minC = p.Compute
		}
		if p.Compute > maxC {
			maxC = p.Compute
		}
	}
	// In stdout mode the summary goes to stderr so the CSV on stdout stays
	// loadable when redirected to a file.
	summary := os.Stdout
	if path == "" {
		summary = os.Stderr
	}
	fmt.Fprintf(summary, "fleet trace %s: %d devices, compute multipliers %.3f-%.3f, %d with availability cycles\n",
		tr.Name, len(tr.Devices), minC, maxC, cycled)
	if path == "" {
		check(tr.WriteCSV(os.Stdout))
		return
	}
	check(tr.Save(path))
	fi, err := os.Stat(path)
	check(err)
	fmt.Printf("wrote %s (%d bytes); run lumos-sim -fleet trace:%s\n", path, fi.Size(), path)
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lumos-datagen: "+format+"\n", args...)
	os.Exit(1)
}
