package lumos_test

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// flagSetGolden pins every CLI's flag set as "-name type default" lines,
// parsed from its -help output (usage text is free to change). A bool flag
// prints no type, so it is listed as bool; a zero default prints none.
var flagSetGolden = map[string]string{
	"lumos-bench": `-backbones string "gcn,gat"
-csv bool
-datasets string "facebook,lastfm"
-epochs int 60
-eps float 2
-exp string "all"
-fbscale float 0.02
-lfscale float 0.1
-mcmc int 150
-sched string "sync"
-secure bool
-seed int 42
-staleness int
-workers int`,
	"lumos-datagen": `-dataset string "facebook"
-devices int 48
-out string
-scale float 0.1
-seed int 1
-traces bool`,
	"lumos-report run": `-md bool`,
	"lumos-report trace": `-critical-path bool
-md bool
-top int 10`,
	"lumos-report diff": `-bytes-tol float 0.1
-energy-tol float 0.1
-lower-better bool
-md bool
-metric-tol float 0.005
-wall-tol float 0.1`,
	"lumos-serve": `-addr string ":8080"
-batch int 64
-batch-wait duration 2ms
-log bool
-pprof bool
-snapshot string "model.snap"
-watch bool
-watch-interval duration 500ms`,
	"lumos-sim": `-agg-capacity float
-backbone string "gcn"
-churn float 0.2
-csv bool
-dataset string "facebook"
-energy-budget float
-eps float 2
-eval-every int 5
-fleet string "zipf"
-link-discipline string
-mcmc int 150
-metrics bool
-metrics-out string
-participation float 0.8
-participation-policy string "uniform"
-rejoin float 0.5
-rounds int 20
-run-out string
-scale float 0.02
-sched string "sync"
-seed int 7
-select bool
-staleness int 2
-task string "supervised"
-topology string
-trace string
-trace-duty float 0.75
-trace-period int 8
-ttl int 2
-workers int
-zipf float 1.2`,
	"lumos-train": `-backbone string "gcn"
-dataset string "facebook"
-epochs int 60
-eps float 2
-mcmc int 150
-metrics bool
-metrics-out string
-no-tree-trimming bool
-no-virtual-nodes bool
-publish string
-run-out string
-save string
-scale float 0.02
-sched string "sync"
-secure bool
-seed int 7
-staleness int
-task string "supervised"
-trace string
-workers int`,
}

// flagSetCommands lists each flag set to pin: the package and the arguments
// that make it print its defaults.
var flagSetCommands = []struct {
	name, pkg string
	args      []string
}{
	{"lumos-bench", "./cmd/lumos-bench", []string{"-help"}},
	{"lumos-datagen", "./cmd/lumos-datagen", []string{"-help"}},
	{"lumos-report run", "./cmd/lumos-report", []string{"run", "-help"}},
	{"lumos-report trace", "./cmd/lumos-report", []string{"trace", "-help"}},
	{"lumos-report diff", "./cmd/lumos-report", []string{"diff", "-help"}},
	{"lumos-serve", "./cmd/lumos-serve", []string{"-help"}},
	{"lumos-sim", "./cmd/lumos-sim", []string{"-help"}},
	{"lumos-train", "./cmd/lumos-train", []string{"-help"}},
}

// TestCLIFlagSets builds every CLI and compares the flags its -help lists —
// name, type and default — with flagSetGolden.
func TestCLIFlagSets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go binary not available: %v", err)
	}
	binDir := t.TempDir()
	for _, c := range flagSetCommands {
		t.Run(strings.ReplaceAll(c.name, " ", "-"), func(t *testing.T) {
			bin := filepath.Join(binDir, filepath.Base(c.pkg))
			if out, err := exec.Command(goBin, "build", "-o", bin, c.pkg).CombinedOutput(); err != nil {
				t.Fatalf("go build %s: %v\n%s", c.pkg, err, out)
			}
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s %s: %v\n%s", c.pkg, strings.Join(c.args, " "), err, out)
			}
			if got, want := parseFlagSet(string(out)), flagSetGolden[c.name]; got != want {
				t.Errorf("%s flag set:\n%s\nwant:\n%s", c.name, got, want)
			}
		})
	}
}

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)(?: (\S+))?$`)
	defaultText = regexp.MustCompile(`\(default (.*)\)$`)
)

// parseFlagSet reduces flag.PrintDefaults output to one "-name type
// default" line per flag, in the order printed (sorted by name).
func parseFlagSet(help string) string {
	var lines []string
	var usage string
	flush := func() {
		if len(lines) == 0 {
			return
		}
		if m := defaultText.FindStringSubmatch(usage); m != nil {
			lines[len(lines)-1] += " " + m[1]
		}
		usage = ""
	}
	for _, l := range strings.Split(help, "\n") {
		if m := flagLine.FindStringSubmatch(l); m != nil {
			flush()
			typ := m[2]
			if typ == "" {
				typ = "bool"
			}
			lines = append(lines, "-"+m[1]+" "+typ)
			continue
		}
		if strings.HasPrefix(l, "    \t") {
			usage += strings.TrimPrefix(l, "    \t")
		}
	}
	flush()
	return strings.Join(lines, "\n")
}
