package webmlgo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerlessKept lists the exported identifiers of internal packages that
// no non-test file names, each with the reason it stays. An entry whose
// identifier gains a caller or is deleted must leave the list.
var callerlessKept = map[string]string{
	"internal/codegen.TagForKind":         "the unit-tag naming Skeleton writes inline; tests build expected skeletons with it",
	"internal/descriptor.LoadDir":         "reads back what SaveDir (webratio generate -out) writes; TestSaveLoadDir round-trips it",
	"internal/descriptor.OverrideService": "Section 6 hand-optimisation: points a unit at a user-supplied component",
	"internal/dom.ByAttr":                 "predicate of dom's Find API, used by dom, style and codegen tests",
	"internal/dom.InsertBefore":           "node-editing primitive of dom; the render oracle places menus with it",
	"internal/dom.MustParse":              "parses static markup in dom and style test fixtures",
	"internal/ejb.Retire":                 "manual scale-down of one clone; the drain and trace-stitching tests drive it",
	"internal/render.InvalidateTemplate":  "hot redeploy of a replaced template into compiled programs",
	"internal/webml.UnregisterPlugin":     "undoes RegisterPlugin in the process-wide registry; tests clean up with it",
}

// TestNoCallerlessExports parses every non-test Go file of the module,
// bench/ and examples included, and fails on any exported top-level
// identifier of an internal package that no non-test file names outside
// its own declaration, unless callerlessKept gives a reason for it. The
// scan matches names, not objects: a method is kept alive by any use of
// its name, so the test under-reports and never needs type checking. A
// method of an unexported type is skipped: only an interface reaches it.
func TestNoCallerlessExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // pkgdir.Name -> file
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decl := map[*ast.Ident]bool{}
		note := func(id *ast.Ident) {
			decl[id] = true
			if id.IsExported() && strings.HasPrefix(path, "internal/") {
				declared[filepath.Dir(path)+"."+id.Name] = path
			}
		}
		for _, dd := range f.Decls {
			switch x := dd.(type) {
			case *ast.FuncDecl:
				if x.Recv != nil && !ast.IsExported(recvTypeName(x.Recv.List[0].Type)) {
					decl[x.Name] = true // reachable only through an interface
					continue
				}
				note(x.Name)
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						note(sp.Name)
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							note(n)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no internal exports found: scan broken?")
	}
	var bad []string
	for key, file := range declared {
		name := key[strings.LastIndexByte(key, '.')+1:]
		_, kept := callerlessKept[key]
		switch {
		case !used[name] && !kept:
			bad = append(bad, key+" ("+file+") has no caller: delete it or keep it with a reason")
		case used[name] && kept:
			bad = append(bad, key+" has a caller now: drop it from callerlessKept")
		}
	}
	for key := range callerlessKept {
		if _, ok := declared[key]; !ok {
			bad = append(bad, key+" is no longer declared: drop it from callerlessKept")
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Fatalf("%d callerless-export problems:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
}

// recvTypeName returns the name of a method receiver's type, without its
// pointer and type parameters.
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
			return ""
		}
	}
}
