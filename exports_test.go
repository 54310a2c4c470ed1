package webmlgo

import (
	"cmp"
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
	"internal/descriptor.LoadDir":         "reads back what SaveDir (webratio generate -out) writes; TestSaveLoadDir round-trips it",
	"internal/descriptor.OverrideService": "Section 6 hand-optimisation: points a unit at a user-supplied component",
	"internal/dom.ByAttr":                 "predicate of dom's Find API, used by dom, style and codegen tests",
	"internal/ejb.Retire":                 "manual scale-down of one clone; the drain and trace-stitching tests drive it",
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
	declared := map[string]string{} // pkgdir.Name -> file
	used := map[string]bool{}
	walkNonTestGo(t, func(path string, f *ast.File) {
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
	})
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

// TestDeprecatedOnlyPinnedByBench fails when a top-level identifier
// documented "Deprecated:" is named by a non-test file outside bench/: a
// deprecated name stays only while the benchmark harness, which changes
// on its own schedule, still compiles against it. It logs the set, the
// names to delete once bench/ stops naming them. Names are matched as in
// TestNoCallerlessExports.
func TestDeprecatedOnlyPinnedByBench(t *testing.T) {
	deprecated := map[string]string{} // Name -> pkgdir.Name
	decls := map[*ast.Ident]bool{}
	users := map[string][]string{} // Name -> files naming it outside bench/
	walkNonTestGo(t, func(path string, f *ast.File) {
		mark := func(doc *ast.CommentGroup, id *ast.Ident) {
			decls[id] = true
			if doc != nil && strings.Contains("\n"+doc.Text(), "\nDeprecated: ") {
				pkg := filepath.Dir(path)
				if pkg == "." {
					pkg = "webmlgo"
				}
				deprecated[id.Name] = pkg + "." + id.Name
			}
		}
		for _, dd := range f.Decls {
			switch x := dd.(type) {
			case *ast.FuncDecl:
				if x.Recv == nil {
					mark(x.Doc, x.Name)
				}
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						mark(cmp.Or(sp.Doc, x.Doc), sp.Name)
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							mark(cmp.Or(sp.Doc, x.Doc), n)
						}
					}
				}
			}
		}
		if strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				users[id.Name] = append(users[id.Name], path)
			}
			return true
		})
	})
	var pinned, bad []string
	for name, key := range deprecated {
		pinned = append(pinned, key)
		if files := users[name]; len(files) > 0 {
			bad = append(bad, key+" is deprecated but named by "+strings.Join(files, ", "))
		}
	}
	sort.Strings(pinned)
	sort.Strings(bad)
	t.Logf("deprecated, pinned only by bench/: %s", strings.Join(pinned, ", "))
	if len(bad) > 0 {
		t.Fatalf("%d deprecated names have callers outside bench/:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
}

// walkNonTestGo parses every non-test Go file of the module, bench/ and
// examples included, and hands each to visit with its path relative to
// the module root.
func walkNonTestGo(t *testing.T, visit func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
