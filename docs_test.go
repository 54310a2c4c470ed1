package webmlgo

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"webmlgo/internal/codegen"
	"webmlgo/internal/fixture"
	"webmlgo/internal/style"
)

// TestDocsMatchGenerator: docs/acm.xml is `webratio export -model acm`
// and docs/generated-acm is `webratio generate -model acm -style b2c`,
// byte for byte and file for file.
func TestDocsMatchGenerator(t *testing.T) {
	m := fixture.Figure1Model()
	doc, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile("docs/acm.xml"); err != nil || !bytes.Equal(got, doc) {
		t.Errorf("docs/acm.xml differs from the exported Figure 1 model (err %v); regenerate with `webratio export -model acm -out docs/acm.xml`", err)
	}

	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := style.CompileTemplates(art.Repo, style.B2CRuleSet()); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := art.Repo.SaveDir(out); err != nil {
		t.Fatal(err)
	}
	ddl := strings.Join(art.DDL, ";\n\n") + ";\n"
	if err := os.WriteFile(filepath.Join(out, "schema.sql"), []byte(ddl), 0o644); err != nil {
		t.Fatal(err)
	}
	want, got := readTree(t, out), readTree(t, filepath.Join("docs", "generated-acm"))
	for name, data := range want {
		if d, ok := got[name]; !ok {
			t.Errorf("docs/generated-acm lacks %s", name)
		} else if !bytes.Equal(d, data) {
			t.Errorf("docs/generated-acm/%s differs from the generator's", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("docs/generated-acm/%s is not generated", name)
		}
	}
	if len(want) == 0 {
		t.Fatal("the generator wrote nothing")
	}
}

// readTree maps every file under root, by slash-separated relative path,
// to its contents.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// designCitation matches a comment's reference to a DESIGN.md section:
// the file name, an optional comma, then the heading in double quotes.
var designCitation = regexp.MustCompile(`DESIGN\.md,? "([^"]+)"`)

// TestDesignCitationsResolve: every DESIGN.md section a Go comment cites
// by heading is a heading of DESIGN.md, so restructuring the document
// cannot strand a citation.
func TestDesignCitationsResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "#") {
			headings[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
		}
	}
	cited := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			text := strings.Join(strings.Fields(cg.Text()), " ")
			for _, m := range designCitation.FindAllStringSubmatch(text, -1) {
				cited++
				if !headings[m[1]] {
					t.Errorf("%s cites DESIGN.md %q, which has no such heading", path, m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("no DESIGN.md citation found: scan broken?")
	}
}
