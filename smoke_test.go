// Smoke tests for every binary entry point: each cmd/* and examples/* main
// package must build, and the fast demos must run end to end. This is the
// safety net that keeps the documented entry points from silently rotting —
// they carry no test files of their own.
package lumos_test

import (
	"crypto/sha256"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// entryPoints lists every main package with the arguments used to exercise
// it at tiny scale. run=false means build-only (the binary needs large
// inputs or long training to say anything useful).
var entryPoints = []struct {
	pkg  string
	name string // optional label when one package has several rows
	run  bool
	args []string
}{
	// lumos-bench runs every experiment runner (Figs. 3–8 and the
	// headline) at minimal scale, so the transcript pins each runner.
	{pkg: "./cmd/lumos-bench", run: true, args: []string{
		"-exp", "all", "-backbones", "gcn", "-datasets", "facebook",
		"-fbscale", "0.004", "-epochs", "2", "-mcmc", "5"}},
	{pkg: "./cmd/lumos-datagen", run: true, args: []string{"-dataset", "facebook", "-scale", "0.005"}},
	// -traces emits a sample fleet trace (stdout CSV here; the file-writing
	// path seeds the lumos-sim-trace row below).
	{pkg: "./cmd/lumos-datagen", name: "lumos-datagen-traces", run: true, args: []string{
		"-traces", "-devices", "8", "-seed", "5"}},
	{pkg: "./cmd/lumos-sim", run: true, args: []string{
		"-dataset", "facebook", "-scale", "0.005", "-rounds", "3", "-mcmc", "10", "-sched", "both"}},
	// The session API made the simulator task-agnostic; this row keeps the
	// link-prediction path (churn + async, AUC timeline) from rotting.
	{pkg: "./cmd/lumos-sim", name: "lumos-sim-unsupervised", run: true, args: []string{
		"-task", "unsupervised", "-dataset", "facebook", "-scale", "0.005",
		"-rounds", "3", "-mcmc", "10", "-churn", "0.2", "-sched", "async"}},
	// Trace-driven fleet with aggregator contention and round-driven model
	// selection: consumes the fleet trace lumos-datagen writes before the
	// rows run ({TRACE} is substituted), closing the write→load→simulate
	// loop without external downloads.
	{pkg: "./cmd/lumos-sim", name: "lumos-sim-trace", run: true, args: []string{
		"-dataset", "facebook", "-scale", "0.005", "-rounds", "3", "-mcmc", "10",
		"-fleet", "trace:{TRACE}", "-agg-capacity", "2e6", "-select"}},
	// Decentralized gossip over a ring contact graph, with the energy-aware
	// participation policy biting a zipf fleet's straggler tail: keeps the
	// -topology/-sched gossip/-participation-policy surface from rotting.
	{pkg: "./cmd/lumos-sim", name: "lumos-sim-gossip", run: true, args: []string{
		"-dataset", "facebook", "-scale", "0.005", "-rounds", "3", "-mcmc", "10",
		"-sched", "gossip", "-topology", "ring:4", "-fleet", "zipf",
		"-participation-policy", "energy"}},
	// Gossip over the complete contact graph, with best-round model
	// selection on the validation metric.
	{pkg: "./cmd/lumos-sim", name: "lumos-sim-complete", run: true, args: []string{
		"-dataset", "facebook", "-scale", "0.005", "-rounds", "3", "-mcmc", "10",
		"-sched", "gossip", "-topology", "complete", "-select"}},
	// Telemetry surface: -trace writes Chrome trace-event JSON ({TMP} is the
	// shared temp dir) and -metrics dumps Prometheus text after the
	// timeline; the row keeps both observability flags from rotting.
	{pkg: "./cmd/lumos-sim", name: "lumos-sim-telemetry", run: true, args: []string{
		"-dataset", "facebook", "-scale", "0.005", "-rounds", "3", "-mcmc", "10",
		"-trace", "{TMP}/sim.trace.json", "-metrics"}},
	// Run recording under -sched both: -run-out and -metrics-out must land in
	// per-mode suffixed paths (recboth.sync/, recboth.async/, ...prom) just
	// like -trace does.
	{pkg: "./cmd/lumos-sim", name: "lumos-sim-runrecord", run: true, args: []string{
		"-dataset", "facebook", "-scale", "0.005", "-rounds", "3", "-mcmc", "10",
		"-sched", "both", "-run-out", "{TMP}/recboth", "-metrics-out", "{TMP}/simboth.prom"}},
	// The same recording surface on the epoch trainer.
	{pkg: "./cmd/lumos-train", name: "lumos-train-runrecord", run: true, args: []string{
		"-dataset", "facebook", "-scale", "0.005", "-epochs", "2", "-mcmc", "10",
		"-run-out", "{TMP}/rectrain", "-metrics-out", "{TMP}/train.prom"}},
	// lumos-report consumes the record and trace the pre-parallel seeding run
	// writes: render it, self-diff it (must exit 0 — the A/B gate identity),
	// and walk the trace's critical paths.
	{pkg: "./cmd/lumos-report", name: "lumos-report-run", run: true, args: []string{
		"run", "{TMP}/seedrec"}},
	{pkg: "./cmd/lumos-report", name: "lumos-report-diff", run: true, args: []string{
		"diff", "{TMP}/seedrec", "{TMP}/seedrec"}},
	{pkg: "./cmd/lumos-report", name: "lumos-report-trace", run: true, args: []string{
		"trace", "{TMP}/seedrec.trace.json", "-critical-path", "-top", "5"}},
	{pkg: "./cmd/lumos-train", run: true, args: []string{
		"-dataset", "facebook", "-scale", "0.005", "-epochs", "2", "-mcmc", "10"}},
	// A dataset file lumos-datagen writes before the rows run (graph.Write →
	// graph.Read), trained, its weights written with -save.
	{pkg: "./cmd/lumos-train", name: "lumos-train-file", run: true, args: []string{
		"-dataset", "file:{TMP}/g.bin", "-epochs", "2", "-mcmc", "10", "-save", "{TMP}/w.bin"}},
	{pkg: "./examples/churnstudy", run: true, args: []string{
		"-n", "60", "-m", "240", "-rounds", "6", "-mcmc", "10"}},
	// energystudy enforces its energy-monotone-in-participation invariant
	// (exits non-zero on regression), so this row is a CI gate too.
	{pkg: "./examples/energystudy", run: true, args: []string{
		"-n", "60", "-m", "240", "-rounds", "4", "-mcmc", "10"}},
	// topologystudy exits non-zero unless every gossip topology lands within
	// 5% of the star-synchronous final at equal rounds, so this row is a CI
	// gate on decentralized convergence.
	{pkg: "./examples/topologystudy", run: true, args: []string{}},
	{pkg: "./examples/quickstart", run: true, args: []string{"-n", "60", "-m", "240", "-epochs", "3", "-mcmc", "10"}},
	// servequickstart runs the whole train→publish→serve→query loop and
	// exits non-zero if any served answer differs from the trainer's own
	// evaluation, so this row is a CI gate on serving bit-identity.
	{pkg: "./examples/servequickstart", run: true, args: []string{
		"-n", "60", "-m", "240", "-epochs", "3", "-mcmc", "10"}},
	{pkg: "./examples/securecompare", run: true},
	// lumos-serve needs a published snapshot and an open port; the
	// serve_e2e_test drives it for real, so build-only here.
	{pkg: "./cmd/lumos-serve", run: false},
	{pkg: "./examples/linkprediction", run: true},
	{pkg: "./examples/privacysweep", run: true},
	{pkg: "./examples/socialnetwork", run: true},
}

// TestEntryPointsBuildAndRun builds every binary and executes the cheap
// ones. It stays short-mode friendly: the tiny-scale runs finish in well
// under a second each, and builds share the normal Go build cache.
func TestEntryPointsBuildAndRun(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go binary not available: %v", err)
	}
	binDir := t.TempDir()

	// Seed the trace-driven rows: lumos-datagen writes the sample fleet
	// trace that the lumos-sim-trace row loads, so the smoke suite
	// exercises the full write→load→simulate pipeline with no external
	// inputs. Runs before the parallel rows; "{TRACE}" in args is
	// substituted with the produced path.
	tracePath := filepath.Join(binDir, "fleet.csv")
	seedGen := filepath.Join(binDir, "trace-seed-datagen")
	if out, err := exec.Command(goBin, "build", "-o", seedGen, "./cmd/lumos-datagen").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/lumos-datagen: %v\n%s", err, out)
	}
	if out, err := exec.Command(seedGen, "-traces", "-devices", "24", "-seed", "3", "-out", tracePath).CombinedOutput(); err != nil {
		t.Fatalf("lumos-datagen -traces: %v\n%s", err, out)
	}

	// Seed the dataset-file row the same way: lumos-datagen writes the graph
	// that lumos-train-file reads back through -dataset file:.
	if out, err := exec.Command(seedGen, "-dataset", "facebook", "-scale", "0.005",
		"-out", filepath.Join(binDir, "g.bin")).CombinedOutput(); err != nil {
		t.Fatalf("lumos-datagen -out: %v\n%s", err, out)
	}

	// Seed the lumos-report rows: one tiny recorded-and-traced sim run whose
	// artifacts the report rows render, self-diff, and analyze.
	seedSim := filepath.Join(binDir, "report-seed-sim")
	if out, err := exec.Command(goBin, "build", "-o", seedSim, "./cmd/lumos-sim").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/lumos-sim: %v\n%s", err, out)
	}
	if out, err := exec.Command(seedSim,
		"-dataset", "facebook", "-scale", "0.005", "-rounds", "3", "-mcmc", "10",
		"-fleet", "zipf", "-run-out", filepath.Join(binDir, "seedrec"),
		"-trace", filepath.Join(binDir, "seedrec.trace.json")).CombinedOutput(); err != nil {
		t.Fatalf("lumos-sim -run-out seed: %v\n%s", err, out)
	}

	for _, ep := range entryPoints {
		ep := ep
		name := ep.name
		if name == "" {
			name = strings.TrimPrefix(ep.pkg, "./")
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(binDir, filepath.Base(name))
			build := exec.Command(goBin, "build", "-o", bin, ep.pkg)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build %s: %v\n%s", ep.pkg, err, out)
			}
			if !ep.run {
				return
			}
			args := make([]string, len(ep.args))
			for i, a := range ep.args {
				a = strings.ReplaceAll(a, "{TRACE}", tracePath)
				args[i] = strings.ReplaceAll(a, "{TMP}", binDir)
			}
			cmd := exec.Command(bin, args...)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s %s: %v\n%s", ep.pkg, strings.Join(args, " "), err, out)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", ep.pkg)
			}
			norm := normalizeTranscript(string(out), binDir)
			if got, want := fmt.Sprintf("%x", sha256.Sum256([]byte(norm)))[:16], transcriptGolden[name]; got != want {
				t.Errorf("transcript hash %q: %q, want %q; normalized output:\n%s", name, got, want, norm)
			}
		})
	}
}

// transcriptGolden pins every run row's output: the first 16 hex digits of
// the SHA-256 of normalizeTranscript's result. The default shard count does
// not depend on the host (core.Config.Shards), so the hashes compare on
// every machine.
var transcriptGolden = map[string]string{
	"cmd/lumos-bench":          "f7edcb8b6fdaf68c",
	"cmd/lumos-datagen":        "1a578c8f9a80c91b",
	"cmd/lumos-sim":            "dc3d65c5259b52cb",
	"cmd/lumos-train":          "cec01ae24835b8a5",
	"examples/churnstudy":      "a6ae0020b8cf2ac3",
	"examples/energystudy":     "9216fc87cbbeb24f",
	"examples/linkprediction":  "355c8e078251bdaf",
	"examples/privacysweep":    "a7bad85fb2f66294",
	"examples/quickstart":      "a9222e1cbe7d7772",
	"examples/securecompare":   "2a8ebe61c647ad45",
	"examples/servequickstart": "ef5d29800c4d59d0",
	"examples/socialnetwork":   "d6460784fa9ccb10",
	"examples/topologystudy":   "c9f6357a2e734e7e",
	"lumos-datagen-traces":     "8c640c6b562100ce",
	"lumos-report-diff":        "8dade3c844f2e131",
	"lumos-report-run":         "726ad4992e8d1869",
	"lumos-report-trace":       "e06cf406ba4bd267",
	"lumos-sim-complete":       "fd2099647122c7ee",
	"lumos-sim-gossip":         "6608a4d1f106c5bc",
	"lumos-sim-runrecord":      "f40d9ae6d3eaaf80",
	"lumos-sim-telemetry":      "0d43a732ab65566f",
	"lumos-sim-trace":          "8980c7efcf707f34",
	"lumos-sim-unsupervised":   "e2a774782bcb958c",
	"lumos-train-file":         "a79110a13bbc7585",
	"lumos-train-runrecord":    "447c56a0a654b0b1",
}

var (
	spaceRun = regexp.MustCompile(` +`)
	rulerRun = regexp.MustCompile(`-{2,}`)
	port     = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)
	// hostLine matches output that differs between two runs of the same
	// command: wall-clock timings (printed, or in the training step-time
	// histogram a -metrics dump holds) and lumos-report's host line.
	hostLine = regexp.MustCompile(`measured training time|total wall time|^total: |^lumos_train_step_seconds|^go \S+ GOMAXPROCS=`)
)

// normalizeTranscript makes a row's output comparable across runs and
// machines: the temp dir becomes {TMP} and a loopback port {PORT}, runs of
// spaces and of table-ruler dashes collapse to one (lumos-report pads its
// columns to the path length), and the timing and host lines are dropped.
func normalizeTranscript(out, tmp string) string {
	out = strings.ReplaceAll(out, tmp, "{TMP}")
	out = port.ReplaceAllString(out, "127.0.0.1:{PORT}")
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		line = rulerRun.ReplaceAllString(spaceRun.ReplaceAllString(line, " "), "-")
		if hostLine.MatchString(line) {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestEpochTrainersRefuseSched: lumos-train and lumos-bench train sync
// epochs, and only lumos-sim schedules rounds, so the epoch trainers have no
// -sched flag: -sched gossip and -sched async must exit non-zero before any
// epoch trains, instead of silently training synchronously.
func TestEpochTrainersRefuseSched(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go binary not available: %v", err)
	}
	binDir := t.TempDir()
	for _, c := range []struct {
		pkg  string
		args []string
	}{
		{"./cmd/lumos-train", []string{"-scale", "0.005", "-epochs", "2", "-mcmc", "5"}},
		{"./cmd/lumos-bench", []string{"-exp", "fig7", "-datasets", "facebook", "-fbscale", "0.004", "-mcmc", "5"}},
	} {
		bin := filepath.Join(binDir, filepath.Base(c.pkg))
		if out, err := exec.Command(goBin, "build", "-o", bin, c.pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", c.pkg, err, out)
		}
		for _, sched := range []string{"gossip", "async"} {
			out, err := exec.Command(bin, append(c.args, "-sched", sched)...).CombinedOutput()
			// The flag package refuses an undefined flag while parsing, so
			// the process exits before it loads a dataset or trains.
			if err == nil || !strings.Contains(string(out), "flag provided but not defined: -sched") {
				t.Errorf("%s -sched %s: err %v, output:\n%s", c.pkg, sched, err, out)
			}
		}
	}
}
