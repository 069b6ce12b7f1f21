package rng

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneSeedingPath fails when a non-test Go file under internal/ or cmd/,
// outside this package, calls math/rand.NewSource: every production stream
// is seeded here, so a new device or shard stream does not bring back
// math/rand's serial seed.
func TestOneSeedingPath(t *testing.T) {
	root := filepath.Join("..", "..")
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	var calls []string
	files := 0
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if abs, err := filepath.Abs(path); err == nil && abs == self {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			files++
			found, err := newSourceCalls(path)
			calls = append(calls, found...)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatalf("no Go files under %s/internal or %s/cmd", root, root)
	}
	if len(calls) > 0 {
		t.Fatalf("%d math/rand.NewSource calls outside internal/rng; seed with rng.New or rng.NewSource:\n%s",
			len(calls), strings.Join(calls, "\n"))
	}
}

// newSourceCalls returns the position of every call of math/rand's
// NewSource in the file at path, under whatever name the file imports
// math/rand as.
func newSourceCalls(path string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	name := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" {
			name = "rand"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" {
		return nil, nil
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "NewSource" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
			out = append(out, fset.Position(call.Pos()).String())
		}
		return true
	})
	return out, nil
}
