// The production-API gate: every exported function and method under
// internal/ must be referenced by production code, where production is every
// non-test file of the module outside bench/. A name that only tests or the
// benchmark call is either deleted, moved into its package's _test.go files,
// or listed in apiAllowList with the reason it stays.
package lumos_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowList names, as "pkg.Func" or "pkg.Type.Method" (pkg is the
// directory under internal/), the exported names the gate lets stay without
// a production caller, each with the reason. An entry the gate would not
// flag fails the gate too.
var apiAllowList = map[string]string{
	// Called from bench/ only. Measurement helpers the layer rungs use:
	"autodiff.SumSquares":       "bench/: reduces a layer's output to the scalar the nn.*_layer_ms rungs differentiate",
	"autodiff.Tape.Len":         "bench/: the autodiff.tape_nodes rung counts a backward's tape nodes",
	"fed.Traffic.TotalMessages": "bench/: the fed.msgs_per_round rung counts a round's messages",
	// ...and paths no round runs, deleted once their rungs time what rounds
	// run (ROADMAP direction 4), since bench/ changes only in a benchmark
	// change:
	"ldp.FeatureEncoder.Encode": "bench/: the ldp.encode_ms rung; rounds run EncodeRecover",
	"core.System.StoreReplica":  "bench/: the core.replica_roundtrip_us rung; gossip rounds run SwapReplica",
	"nn.MixOptStates":           "bench/: the nn.mix_optstates_us rung; gossip rounds mix through MixModelsInto",

	// Test support other packages' tests use; a package's _test.go files
	// cannot export to another package's tests.
	"tensor.FromRows":            "literal matrices in the autodiff, nn, graph and baselines tests",
	"tensor.ApproxEqual":         "tolerance comparison in the autodiff, nn and graph tests",
	"tensor.Full":                "constant matrices in the autodiff, nn and serve tests",
	"tensor.Eye":                 "the identity weights of the nn layer tests",
	"tensor.HasNaN":              "the nn tests' finite-output checks",
	"tensor.MaxAbs":              "the core first-layer tests' error scale",
	"tensor.ConstSparse.Dense":   "the dense oracle the core and autodiff tests check the sparse first-layer input against",
	"tensor.ConstSparse.Entries": "the core first-layer tests and BenchmarkFirstLayer count a view's stored entries",
	"tree.Tree.Validate":         "the structural invariants core's tests check on every tree NewSystem builds",
	"autodiff.Tape.Bytes":        "core's retention test checks that no shard tape holds a buffer between rounds",

	// Reserved by a ROADMAP direction.
	"nn.LoadParams":            "direction 2: the checkpoint's weight section reads it, or it goes with -save",
	"core.Replica.Fingerprint": "direction 2: resume checks gossip replicas with it; the sim goldens pin it today",
	"nn.NewSGD":                "direction 3(b): the gossip bridge's identity test runs SGD without momentum",
	"ldp.ComposedEps":          "direction 12(c): the privacy budget a device's composed mechanisms spend",
	"graph.LoadCSVDataset":     "the MUSAE loader for the paper's real Facebook and LastFM data; no caller until those files are in the repository",
}

func TestProductionAPIIsCalled(t *testing.T) {
	files, err := moduleSources(".")
	if err != nil {
		t.Fatal(err)
	}
	problems, err := unusedExports("lumos", files, apiAllowList)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestAPIGateFixture(t *testing.T) {
	files := map[string][]byte{
		"internal/lib/lib.go": []byte(`package lib

type Sizer interface{ Size() int }

type T struct{}

func (T) Size() int  { return 0 }
func (T) Spare() int { return 0 }

type E struct{}

func (E) Error() string { return "" }

func Used()      { helper() }
func Unused()    {}
func BenchOnly() {}
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func helper() {}
`),
		"cmd/app/main.go": []byte(`package main

import "fixture/internal/lib"

func main() {
	lib.Used()
	var _ lib.Sizer = lib.T{}
	var _ error = lib.E{}
}
`),
		"bench/main.go": []byte(`package main

import "fixture/internal/lib"

func main() { lib.BenchOnly() }
`),
	}
	run := func(t *testing.T, allow map[string]string) string {
		t.Helper()
		problems, err := unusedExports("fixture", files, allow)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(problems, "\n")
	}

	got := run(t, nil)
	for _, want := range []string{
		"lib.Unused (internal/lib/lib.go:15) has no reference outside _test.go files",
		"lib.BenchOnly (internal/lib/lib.go:16) is referenced only from bench/",
		"lib.Recursive (internal/lib/lib.go:17) has no reference outside _test.go files",
		"lib.T.Spare (internal/lib/lib.go:8) has no reference outside _test.go files",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("gate did not report %q; it reported:\n%s", want, got)
		}
	}
	for _, quiet := range []string{"lib.Used", "lib.T.Size", "lib.E.Error", "helper"} {
		if strings.Contains(got, quiet+" ") {
			t.Errorf("gate reported %s:\n%s", quiet, got)
		}
	}

	allow := map[string]string{
		"lib.Unused":    "reason",
		"lib.BenchOnly": "reason",
		"lib.Recursive": "reason",
		"lib.T.Spare":   "reason",
	}
	if got := run(t, allow); got != "" {
		t.Errorf("an allow-list naming every flagged name still fails:\n%s", got)
	}
	allow["lib.Used"] = "reason"
	allow["lib.Gone"] = "reason"
	allow["lib.T.Spare"] = ""
	got = run(t, allow)
	for _, want := range []string{
		"allow-list entry lib.Used is stale: the gate does not flag it",
		"allow-list entry lib.Gone is stale: no exported function or method has that name",
		"allow-list entry lib.T.Spare gives no reason",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("gate did not report %q; it reported:\n%s", want, got)
		}
	}
}

// moduleSources reads every non-test Go file under root that the go tool
// builds for this GOOS/GOARCH (build constraints and _GOARCH suffixes
// honoured, as go build does), keyed by its slash-separated path relative to
// root. Directories the go tool ignores (testdata, and names starting with
// "." or "_") are skipped.
func moduleSources(root string) (map[string][]byte, error) {
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = src
		return nil
	})
	return files, err
}

// apiChecker type-checks a module's packages from in-memory sources. Module
// packages are checked once each, so every reference to a function resolves
// to the same object; everything else comes from the standard library's
// sources.
type apiChecker struct {
	module string
	dirs   map[string][]string // package directory → its files' paths
	files  map[string][]byte
	fset   *token.FileSet
	std    types.ImporterFrom
	pkgs   map[string]*apiPackage
}

type apiPackage struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

func (c *apiChecker) Import(p string) (*types.Package, error) {
	return c.ImportFrom(p, "", 0)
}

func (c *apiChecker) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	if p != c.module && !strings.HasPrefix(p, c.module+"/") {
		return c.std.ImportFrom(p, dir, mode)
	}
	ap, err := c.check(strings.TrimPrefix(strings.TrimPrefix(p, c.module), "/"))
	if err != nil {
		return nil, err
	}
	return ap.pkg, nil
}

// check parses and type-checks the package in dir (relative to the module
// root; "" is the root), once.
func (c *apiChecker) check(dir string) (*apiPackage, error) {
	if ap, ok := c.pkgs[dir]; ok {
		if ap == nil {
			return nil, fmt.Errorf("import cycle through %q", dir)
		}
		return ap, nil
	}
	names, ok := c.dirs[dir]
	if !ok {
		return nil, fmt.Errorf("no Go files in module directory %q", dir)
	}
	c.pkgs[dir] = nil
	ap := &apiPackage{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(c.fset, name, c.files[name], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ap.files = append(ap.files, f)
	}
	importPath := path.Join(c.module, dir)
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(importPath, c.fset, ap.files, ap.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	ap.pkg = pkg
	c.pkgs[dir] = ap
	return ap, nil
}

// unusedExports type-checks every package of the module held in files
// (non-test sources keyed by slash path relative to the module root) and
// returns, sorted, one line per exported function or method under internal/
// that production code never references and allow does not list, and one
// per allow entry that is stale or gives no reason. A method that satisfies
// an interface declared in the module or its imports is not reported: it
// can be called through the interface.
func unusedExports(module string, files map[string][]byte, allow map[string]string) ([]string, error) {
	c := &apiChecker{
		module: module,
		dirs:   map[string][]string{},
		files:  files,
		fset:   token.NewFileSet(),
		pkgs:   map[string]*apiPackage{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil).(types.ImporterFrom)
	for name := range files {
		dir := path.Dir(name)
		if dir == "." {
			dir = ""
		}
		c.dirs[dir] = append(c.dirs[dir], name)
	}
	var dirs []string
	for dir, names := range c.dirs {
		sort.Strings(names)
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := c.check(dir); err != nil {
			return nil, err
		}
	}

	// Candidates: every exported function and method declared under
	// internal/, keyed by its object.
	type candidate struct {
		key  string
		decl *ast.FuncDecl
		recv *types.Named
	}
	cands := map[*types.Func]candidate{}
	for _, dir := range dirs {
		rel, ok := strings.CutPrefix(dir, "internal/")
		if !ok {
			continue
		}
		ap := c.pkgs[dir]
		for _, f := range ap.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := ap.info.Defs[fd.Name].(*types.Func)
				cd := candidate{key: rel + "." + fd.Name.Name, decl: fd}
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
					t := sig.Recv().Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					cd.recv = t.(*types.Named)
					cd.key = rel + "." + cd.recv.Obj().Name() + "." + fd.Name.Name
				}
				cands[fn] = cd
			}
		}
	}

	// References: production (any non-test file outside bench/) or bench.
	// A function's references to itself do not count.
	const (
		benchRef = 1 << iota
		prodRef
	)
	refs := map[*types.Func]int{}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var collect func(*types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			collect(imp)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, dir := range dirs {
		ap := c.pkgs[dir]
		collect(ap.pkg)
		for _, tv := range ap.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		kind := prodRef
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			kind = benchRef
		}
		for id, obj := range ap.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if cd, ok := cands[fn]; ok && cd.decl.Pos() <= id.Pos() && id.Pos() < cd.decl.End() {
				continue
			}
			refs[fn] |= kind
		}
	}

	satisfies := func(cd candidate) bool {
		name := cd.decl.Name.Name
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() != name {
					continue
				}
				if types.Implements(cd.recv, it) || types.Implements(types.NewPointer(cd.recv), it) {
					return true
				}
			}
		}
		return false
	}

	var problems []string
	flagged := map[string]bool{}
	known := map[string]bool{}
	for fn, cd := range cands {
		known[cd.key] = true
		if refs[fn]&prodRef != 0 || (cd.recv != nil && satisfies(cd)) {
			continue
		}
		flagged[cd.key] = true
		if _, ok := allow[cd.key]; ok {
			continue
		}
		why := "has no reference outside _test.go files"
		if refs[fn]&benchRef != 0 {
			why = "is referenced only from bench/"
		}
		pos := c.fset.Position(cd.decl.Name.Pos())
		problems = append(problems, fmt.Sprintf("%s (%s:%d) %s", cd.key, pos.Filename, pos.Line, why))
	}
	for key, reason := range allow {
		switch {
		case !known[key]:
			problems = append(problems, fmt.Sprintf("allow-list entry %s is stale: no exported function or method has that name", key))
		case !flagged[key]:
			problems = append(problems, fmt.Sprintf("allow-list entry %s is stale: the gate does not flag it", key))
		case strings.TrimSpace(reason) == "":
			problems = append(problems, fmt.Sprintf("allow-list entry %s gives no reason", key))
		}
	}
	sort.Strings(problems)
	return problems, nil
}
