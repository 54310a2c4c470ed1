package webmlgo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// maxOptions bounds the public configuration surface: every exported
// function returning Option is a decision a deployer has to understand.
const maxOptions = 14

// TestOptionCount counts the exported functions of the package's
// non-test sources that return Option, and fails when the count grows
// past maxOptions.
func TestOptionCount(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var options []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
				options = append(options, fn.Name.Name)
			}
		}
	}
	sort.Strings(options)
	if len(options) == 0 {
		t.Fatal("no options found: scan broken?")
	}
	if len(options) > maxOptions {
		t.Fatalf("%d exported options, want at most %d:\n  %s", len(options), maxOptions, strings.Join(options, "\n  "))
	}
	t.Logf("%d exported options", len(options))
}
