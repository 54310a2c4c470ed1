package webmlgo

import (
	"bytes"
	"strings"
	"testing"

	"webmlgo/internal/fixture"
)

// TestModelDocumentFacade: the documented facade over the specification
// document and the advisory checks. Exporting the Figure 1 model,
// importing the document and exporting again gives the same bytes, and
// Lint names a page no navigation reaches.
func TestModelDocumentFacade(t *testing.T) {
	doc, err := MarshalModel(fixture.Figure1Model())
	if err != nil {
		t.Fatal(err)
	}
	m, err := UnmarshalModel(doc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, again) {
		t.Fatalf("marshal → unmarshal → marshal is no fixpoint:\n%s\n---\n%s", doc, again)
	}

	b := NewBuilder("lint", fixture.ACMSchema())
	sv := b.SiteView("sv", "SV")
	sv.Page("home", "Home").Index("volumes", "Volume", "Title")
	sv.Page("orphan", "Orphan").Index("others", "Volume", "Title")
	lint, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	warnings := Lint(lint)
	if !strings.Contains(strings.Join(warnings, "\n"), `page "orphan" is unreachable`) {
		t.Fatalf("Lint = %q, want the orphan page named", warnings)
	}
}
