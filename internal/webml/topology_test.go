package webml

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// topologyProblems runs only the transport-topology check, so its
// messages come out in page order rather than Validate's sorted order.
func topologyProblems(m *Model) []string {
	var out []string
	m.validateTransportTopology(func(format string, args ...interface{}) {
		out = append(out, fmt.Sprintf(format, args...))
	})
	return out
}

func TestTopologyTransportAcrossPagesIsNoCycle(t *testing.T) {
	b := NewBuilder("m", acmSchema())
	sv := b.SiteView("sv", "SV")
	d1 := sv.Page("p1", "P1").Data("d1", "Volume", "Title")
	d2 := sv.Page("p2", "P2").Data("d2", "Volume", "Title")
	b.Transport(d1.ID, d2.ID, P("oid", "x"))
	b.Transport(d2.ID, d1.ID, P("oid", "y"))
	b.model.buildIndex()
	if got := topologyProblems(b.model); len(got) != 0 {
		t.Fatalf("cross-page transport links reported as %q", got)
	}
	_, err := b.Build()
	if err == nil || strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want crossing-page problems and no cycle", err)
	}
}

func TestTopologyCyclicPagesInPageOrder(t *testing.T) {
	b := NewBuilder("m", acmSchema())
	sv := b.SiteView("sv", "SV")
	for _, id := range []string{"zeta", "middle", "alpha"} {
		pb := sv.Page(id, id)
		d1 := pb.Data(id+"1", "Volume", "Title")
		d2 := pb.Data(id+"2", "Volume", "Title")
		b.Transport(d1.ID, d2.ID, P("oid", "x"))
		if id != "middle" {
			b.addLink(AutomaticLink, d2.ID, d1.ID, []LinkParam{P("oid", "y")})
		}
	}
	b.model.buildIndex()
	want := []string{
		`page "zeta" has a cycle in its transport-link topology`,
		`page "alpha" has a cycle in its transport-link topology`,
	}
	if got := topologyProblems(b.model); !reflect.DeepEqual(got, want) {
		t.Fatalf("problems = %q, want %q", got, want)
	}
}

// A unit ID held by two pages is an edge endpoint on each of them, but a
// path never continues from one page into the other. The problem lists
// are those the per-page link scan gave.
func TestTopologyDuplicateUnitAcrossPages(t *testing.T) {
	cases := []struct {
		name  string
		links [][2]string
		want  []string
	}{
		// x→dup is an edge of p1 and dup→y of p2, so y→x closes no cycle.
		{"no spurious cycle", [][2]string{{"x", "dup"}, {"dup", "y"}, {"y", "x"}}, []string{
			`duplicate ID "dup" (unit and unit)`,
			`transport link "link1" crosses pages ("x" -> "dup")`,
			`transport link "link3" crosses pages ("y" -> "x")`,
		}},
		// dup→y and y→dup are both edges of p2, the duplicate's second page.
		{"cycle on the second page", [][2]string{{"dup", "y"}, {"y", "dup"}}, []string{
			`duplicate ID "dup" (unit and unit)`,
			`page "p2" has a cycle in its transport-link topology`,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder("m", acmSchema())
			sv := b.SiteView("sv", "SV")
			p1 := sv.Page("p1", "P1")
			p1.Data("x", "Volume", "Title")
			p1.Data("dup", "Volume", "Title")
			p2 := sv.Page("p2", "P2")
			p2.Data("dup", "Volume", "Title")
			p2.Data("y", "Volume", "Title")
			for _, l := range c.links {
				b.Transport(l[0], l[1], P("oid", "v"))
			}
			_, err := b.Build()
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("err = %v, want a ValidationError", err)
			}
			if !reflect.DeepEqual(verr.Problems, c.want) {
				t.Fatalf("problems = %q, want %q", verr.Problems, c.want)
			}
		})
	}
}
