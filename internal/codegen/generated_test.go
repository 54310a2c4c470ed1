package codegen_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"strings"
	"sync"
	"testing"

	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/fixture"
	"webmlgo/internal/style"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

// goldenArtifacts is the SHA-256 of the Acer-Euro artifacts as hashed by
// TestGeneratedArtifactsGolden: generation is a pure function of the
// model, and styling output is pinned byte for byte.
const goldenArtifacts = "8ccc5575b7a73a5f9a2861fafae3a4ce6b49b802117ba6f9fcc34c110a89757c"

func generate(t *testing.T, m *webml.Model) *codegen.Artifacts {
	t.Helper()
	g, err := codegen.New(m)
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// hashArtifacts writes the DDL, every unit, page and config descriptor,
// and every raw template to h, each in sorted order.
func hashArtifacts(t *testing.T, h hash.Hash, art *codegen.Artifacts) {
	t.Helper()
	for _, stmt := range art.DDL {
		fmt.Fprintf(h, "%s;\n", stmt)
	}
	var docs []any
	for _, u := range art.Repo.Units() {
		docs = append(docs, u)
	}
	for _, p := range art.Repo.Pages() {
		docs = append(docs, p)
	}
	for _, d := range append(docs, art.Repo.Config()) {
		data, err := descriptor.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	hashTemplates(h, "raw", art.Repo)
}

func hashTemplates(h hash.Hash, label string, repo *descriptor.Repository) {
	for _, name := range repo.TemplateNames() {
		tpl, _ := repo.Template(name)
		fmt.Fprintf(h, "%s %s %d\n%s\n", label, name, len(tpl), tpl)
	}
}

func digest(t *testing.T, art *codegen.Artifacts) string {
	t.Helper()
	h := sha256.New()
	hashArtifacts(t, h, art)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratedArtifactsGolden hashes the Acer-Euro DDL, every unit, page
// and config descriptor, and every template raw and compiled with the
// B2C, B2B and intranet rule sets, each in sorted order.
func TestGeneratedArtifactsGolden(t *testing.T) {
	m, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashArtifacts(t, h, generate(t, m))
	for _, rs := range []*style.RuleSet{style.B2CRuleSet(), style.B2BRuleSet(), style.IntranetRuleSet()} {
		styled := generate(t, m)
		if _, err := style.CompileTemplates(styled.Repo, rs); err != nil {
			t.Fatal(err)
		}
		hashTemplates(h, rs.Name, styled.Repo)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenArtifacts {
		t.Fatalf("artifact hash = %s, want %s", got, goldenArtifacts)
	}
}

// TestGenerateCopiesShareNoState: styling, overriding or redeploying one
// Generate result leaves another, and every later one, byte-identical.
func TestGenerateCopiesShareNoState(t *testing.T) {
	m := fixture.Figure1Model()
	mine, theirs := generate(t, m), generate(t, m)
	before := digest(t, theirs)
	if digest(t, mine) != before {
		t.Fatal("two Generate results differ")
	}
	if _, err := style.CompileTemplates(mine.Repo, style.B2CRuleSet()); err != nil {
		t.Fatal(err)
	}
	if err := mine.Repo.OverrideQuery("volumeData", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if err := mine.Repo.OverrideService("issuesPapers", "custom"); err != nil {
		t.Fatal(err)
	}
	redeployed := *mine.Repo.Page("volumePage")
	redeployed.Name = "redeployed"
	mine.Repo.PutPage(&redeployed)
	mine.Repo.PutTemplate("volumePage", "<html/>")
	mine.DDL[0] = "DROP TABLE volume"
	if _, err := mine.Repo.Schedule("paperPage"); err != nil {
		t.Fatal(err)
	}
	if digest(t, mine) == before {
		t.Fatal("the changes did not take")
	}
	if got := digest(t, theirs); got != before {
		t.Fatal("changing one Generate result changed another")
	}
	if got := digest(t, generate(t, m)); got != before {
		t.Fatal("changing one Generate result changed the next")
	}
}

// TestGenerateConcurrently: callers sharing one sealed model generate and
// style their copies at the same time (the race detector checks the memo).
func TestGenerateConcurrently(t *testing.T) {
	m := fixture.Figure1Model()
	styled := make([]string, 8)
	var wg sync.WaitGroup
	for i := range styled {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := codegen.New(m)
			if err != nil {
				t.Error(err)
				return
			}
			art, err := g.Generate()
			if err == nil {
				_, err = style.CompileTemplates(art.Repo, style.B2CRuleSet())
			}
			if err != nil {
				t.Error(err)
				return
			}
			styled[i], _ = art.Repo.Template("volumePage")
		}()
	}
	wg.Wait()
	for _, tpl := range styled {
		if tpl != styled[0] || !strings.Contains(tpl, `data-style="b2c"`) {
			t.Fatalf("concurrent generations differ:\n%s\n%s", tpl, styled[0])
		}
	}
}

// TestValidateRenewsArtifacts: a sealed model is generated once; after an
// edit and Validate it is generated afresh, and after an invalid edit
// codegen.New fails.
func TestValidateRenewsArtifacts(t *testing.T) {
	m := fixture.Figure1Model()
	if !m.Sealed() {
		t.Fatal("a built model is not sealed")
	}
	first := generate(t, m)
	if again := generate(t, m); again.Repo.Unit("volumeData") != first.Repo.Unit("volumeData") {
		t.Fatal("a sealed model was generated twice")
	}

	m.PageByID("volumePage").Name = "Renamed Volume Page"
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	fresh := generate(t, m)
	if tpl, _ := fresh.Repo.Template("volumePage"); !strings.Contains(tpl, "Renamed Volume Page") {
		t.Fatalf("re-validated model served stale artifacts:\n%s", tpl)
	}
	if tpl, _ := first.Repo.Template("volumePage"); strings.Contains(tpl, "Renamed") {
		t.Fatal("regeneration changed an earlier result")
	}

	m.Links = append(m.Links, &webml.Link{ID: "dangling", Kind: webml.NormalLink, From: "volumeData", To: "nowhere"})
	if err := m.Validate(); err == nil {
		t.Fatal("dangling link accepted")
	}
	if m.Sealed() {
		t.Fatal("a failed Validate left the model sealed")
	}
	if _, err := codegen.New(m); err == nil {
		t.Fatal("codegen.New accepted an invalid model")
	}
}
