// The production-coverage gate: every non-test function under internal/ is
// entered by a production run — the benchmark's workloads and the CLI smoke
// rows, built with coverage instrumentation by scripts/coverage.sh — or is
// listed in coverageAllowList with the reason it stays. The API gate
// (api_gate_test.go) sees only names; this one sees code that no input
// selects.
package lumos_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
)

// coverageAllowList names, as "pkg.Func" or "pkg.Type.Method" (pkg is the
// directory under internal/), the functions no production run enters that
// stay, each with the reason. An entry the gate would not flag fails the
// gate too. String and Error methods are exempt.
var coverageAllowList = map[string]string{
	// Test support other packages' tests use (apiAllowList keeps the same
	// names): a package's _test.go files cannot export to another package's
	// tests.
	"tensor.FromRows":            "literal matrices in the autodiff, nn, graph and baselines tests",
	"tensor.ApproxEqual":         "tolerance comparison in the autodiff, nn and graph tests",
	"tensor.Full":                "constant matrices in the autodiff, nn and serve tests",
	"tensor.Eye":                 "the identity weights of the nn layer tests",
	"tensor.HasNaN":              "the nn tests' finite-output checks",
	"tensor.MaxAbs":              "the core first-layer tests' error scale",
	"tensor.ConstSparse.Dense":   "the dense oracle the core and autodiff tests check the sparse first-layer input against",
	"tensor.ConstSparse.Entries": "the core first-layer tests count a view's stored entries",
	"tree.Tree.Validate":         "the structural invariants core's tests check on every tree NewSystem builds",
	"autodiff.Tape.Bytes":        "core's retention test checks that no shard tape holds a buffer between rounds",
	"autodiff.Pool.Bytes":        "Tape.Bytes counts its pool through it",
	"autodiff.capBytes":          "Tape.Bytes and Pool.Bytes sum buffer capacities through it",

	// Reserved by a ROADMAP direction (apiAllowList keeps the exported
	// ones).
	"core.Replica.Fingerprint": "direction 2: resume checks gossip replicas with it",
	"nn.OptState.StepCount":    "read by Replica.Fingerprint only",
	"nn.OptState.Moments":      "read by Replica.Fingerprint only",
	"nn.LoadParams":            "direction 2: the checkpoint's weight section reads it",
	"nn.readExactly":           "LoadParams reads its sections through it",
	"nn.NewSGD":                "direction 3(b): the gossip bridge's identity test runs SGD without momentum",
	"nn.SGD.Step":              "direction 3(b), with NewSGD",
	"ldp.ComposedEps":          "direction 12(c): the privacy budget a device's composed mechanisms spend",
	"graph.LoadCSVDataset":     "the MUSAE loader for the paper's real Facebook and LastFM data; no caller until those files are in the repository",
	"graph.ReadEdgeList":       "LoadCSVDataset's edge reader",
	"graph.ReadLabels":         "LoadCSVDataset's label reader",
	"graph.ReadSparseFeatures": "LoadCSVDataset's feature reader",
	"graph.newLineScanner":     "the CSV readers' line scanner",
	"graph.splitFields":        "the CSV readers' field splitter",

	// Production paths behind a flag no production row sets.
	"eval.Table.RenderCSV":           "lumos-bench -csv and lumos-sim -csv",
	"eval.Fig7CDFTable":              "lumos-bench -exp fig7 -csv",
	"metrics.CDF.Points":             "Fig7CDFTable's curves (lumos-bench -exp fig7 -csv)",
	"eval.Table.RenderMarkdown":      "lumos-report -md",
	"fleet.Uniform":                  "lumos-sim -fleet uniform",
	"fleet.uniform.Profiles":         "lumos-sim -fleet uniform",
	"fleet.Nominal":                  "the uniform fleet's device (lumos-sim -fleet uniform)",
	"fleet.Periodic":                 "lumos-sim -fleet periodic",
	"fleet.periodic.Profiles":        "lumos-sim -fleet periodic",
	"topo.load":                      "lumos-sim -topology file:<path>",
	"topo.readJSON":                  "lumos-sim -topology file:<path>",
	"serve.Server.accessLogged":      "lumos-serve -log",
	"serve.statusWriter.WriteHeader": "lumos-serve -log",
	"tensor.parallelRowBlocks": "the in-op fan-out of products over 2^21 flops: lumos-bench -exp fig3 enters it " +
		"from -fbscale 0.04 up; no workload or smoke row multiplies one (ROADMAP direction 16)",

	// Error paths no production row takes.
	"serve.writeQueryError": "a query the replica refuses (not ready, unknown vertex); the benchmark's and the e2e row's queries are all valid",
	"snapshot.formatError":  "a snapshot file of a format this build does not read",
	"report.allBlankAfter":  "a rounds file whose final row a killed run tore",
	"topo.repairMatching":   "a k-regular graph for which 1000 shuffles find no simple matching (near-complete graphs)",
}

// TestProductionCoverage checks the merged coverage profile that
// scripts/coverage.sh writes (`go tool covdata textfmt`) and names in
// LUMOS_COVERAGE_PROFILE. Without a profile there is nothing to check.
func TestProductionCoverage(t *testing.T) {
	profile := os.Getenv("LUMOS_COVERAGE_PROFILE")
	if profile == "" {
		t.Skip("no LUMOS_COVERAGE_PROFILE: scripts/coverage.sh runs this gate")
	}
	raw, err := os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	files, err := moduleSources(".")
	if err != nil {
		t.Fatal(err)
	}
	problems, funcs, unentered, err := unenteredFuncs("lumos", files, raw, coverageAllowList)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d non-test functions under internal/ are never entered; %d allow-list entries",
		unentered, funcs, len(coverageAllowList))
	for _, p := range problems {
		t.Error(p)
	}
}

func TestCoverageGateFixture(t *testing.T) {
	files := map[string][]byte{
		"internal/lib/lib.go": []byte(`package lib

type T struct{}

func (T) String() string { return "" }
func (*T) Used() {}
func (T) Spare() int { return 0 }

func Entered() {
	go func() {}()
}

func InClosure() func() {
	return func() {
		_ = 1
	}
}

func TestOnly() int { return 1 }
func Stub()
`),
		"internal/lib/other.go": []byte(`package lib

func Unlinked() int { return 2 }
`),
		"cmd/app/main.go": []byte(`package main

func main() { println() }
`),
	}
	// Blocks start after their opening brace, as the cover tool records
	// them; InClosure's own statement is marked unexecuted so that only its
	// closure's block enters it. other.go is in no profile: no run linked it.
	profile := []byte(`mode: set
fixture/internal/lib/lib.go:5.27,5.39 1 0
fixture/internal/lib/lib.go:7.23,7.33 1 0
fixture/internal/lib/lib.go:9.17,10.16 1 1
fixture/internal/lib/lib.go:10.13,10.13 0 0
fixture/internal/lib/lib.go:13.26,14.17 1 0
fixture/internal/lib/lib.go:14.17,16.3 1 1
fixture/internal/lib/lib.go:19.22,19.32 1 0
fixture/cmd/app/main.go:3.14,3.24 1 1
`)
	run := func(t *testing.T, allow map[string]string) string {
		t.Helper()
		problems, funcs, unentered, err := unenteredFuncs("fixture", files, profile, allow)
		if err != nil {
			t.Fatal(err)
		}
		if funcs != 5 || unentered != 3 {
			t.Errorf("%d functions, %d never entered; want 5 and 3", funcs, unentered)
		}
		return strings.Join(problems, "\n")
	}

	got := run(t, nil)
	for _, want := range []string{
		"lib.T.Spare (internal/lib/lib.go:7) is never entered",
		"lib.TestOnly (internal/lib/lib.go:19) is never entered",
		"lib.Unlinked (internal/lib/other.go:3) is never entered",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("gate did not report %q; it reported:\n%s", want, got)
		}
	}
	for _, quiet := range []string{"lib.T.String", "lib.T.Used", "lib.Entered", "lib.InClosure", "lib.Stub", "main"} {
		if strings.Contains(got, quiet+" ") {
			t.Errorf("gate reported %s:\n%s", quiet, got)
		}
	}

	allow := map[string]string{
		"lib.T.Spare":  "reason",
		"lib.TestOnly": "reason",
		"lib.Unlinked": "reason",
	}
	if got := run(t, allow); got != "" {
		t.Errorf("an allow-list naming every flagged function still fails:\n%s", got)
	}
	allow["lib.Entered"] = "reason"
	allow["lib.Gone"] = "reason"
	allow["lib.TestOnly"] = ""
	got = run(t, allow)
	for _, want := range []string{
		"allow-list entry lib.Entered is stale: a production run enters it",
		"allow-list entry lib.Gone is stale: no function under internal/ has that name",
		"allow-list entry lib.TestOnly gives no reason",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("gate did not report %q; it reported:\n%s", want, got)
		}
	}
}

// coverBlock is one counted block of a text coverage profile: where it
// starts, as a (line, column) pair, and whether any run executed it.
type coverBlock struct {
	start [2]int
	hit   bool
}

// parseCoverProfile reads a `go tool covdata textfmt` profile into its
// blocks, keyed by file path relative to the module root. Files outside the
// module are dropped.
func parseCoverProfile(module string, raw []byte) (map[string][]coverBlock, error) {
	blocks := map[string][]coverBlock{}
	for n, line := range strings.Split(string(raw), "\n") {
		if n == 0 && strings.HasPrefix(line, "mode:") || line == "" {
			continue
		}
		// file:line.col,line.col statements count
		colon := strings.LastIndexByte(line, ':')
		if colon < 0 {
			return nil, fmt.Errorf("coverage profile line %d: %q", n+1, line)
		}
		var l0, c0, l1, c1, stmts, count int
		if _, err := fmt.Sscanf(line[colon+1:], "%d.%d,%d.%d %d %d", &l0, &c0, &l1, &c1, &stmts, &count); err != nil {
			return nil, fmt.Errorf("coverage profile line %d: %q: %v", n+1, line, err)
		}
		if rel, ok := strings.CutPrefix(line[:colon], module+"/"); ok {
			blocks[rel] = append(blocks[rel], coverBlock{start: [2]int{l0, c0}, hit: count > 0})
		}
	}
	return blocks, nil
}

// unenteredFuncs returns, sorted, one line per non-test function or method
// under internal/ (files holds the module's non-test sources, keyed by slash
// path relative to its root) that no counted block of profile executed and
// allow does not list, and one per allow entry that is stale or gives no
// reason; with them, the number of functions checked and of those never
// entered. A function's closures count as its own code; a file that is in
// no profile was linked into no run, so none of its functions was entered.
// String and Error methods are exempt, and so are functions without a
// statement (an assembly declaration or an empty body).
func unenteredFuncs(module string, files map[string][]byte, profile []byte, allow map[string]string) (problems []string, funcs, unentered int, err error) {
	blocks, err := parseCoverProfile(module, profile)
	if err != nil {
		return nil, 0, 0, err
	}
	fset := token.NewFileSet()
	declared := map[string]bool{}
	flagged := map[string]bool{}
	var names []string
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pkg, ok := strings.CutPrefix(path.Dir(name), "internal/")
		if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, name, files[name], parser.SkipObjectResolution)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || len(fd.Body.List) == 0 {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				if n := fd.Name.Name; n == "String" || n == "Error" {
					continue
				}
				key = pkg + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			declared[key] = true
			lo, hi := fset.Position(fd.Body.Lbrace), fset.Position(fd.Body.Rbrace)
			from, to := [2]int{lo.Line, lo.Column}, [2]int{hi.Line, hi.Column}
			funcs++
			hit := false
			for _, b := range blocks[name] {
				hit = hit || b.hit && !posLess(b.start, from) && !posLess(to, b.start)
			}
			if hit {
				continue
			}
			unentered++
			flagged[key] = true
			if _, ok := allow[key]; !ok {
				problems = append(problems, fmt.Sprintf("%s (%s:%d) is never entered by a production run",
					key, name, fset.Position(fd.Pos()).Line))
			}
		}
	}
	for key, reason := range allow {
		switch {
		case !declared[key]:
			problems = append(problems, fmt.Sprintf("allow-list entry %s is stale: no function under internal/ has that name", key))
		case !flagged[key]:
			problems = append(problems, fmt.Sprintf("allow-list entry %s is stale: a production run enters it", key))
		case strings.TrimSpace(reason) == "":
			problems = append(problems, fmt.Sprintf("allow-list entry %s gives no reason", key))
		}
	}
	sort.Strings(problems)
	return problems, funcs, unentered, nil
}

// recvTypeName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P, Q].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// posLess orders (line, column) pairs.
func posLess(a, b [2]int) bool {
	return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
}
