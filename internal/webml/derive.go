package webml

import (
	"strings"

	"webmlgo/internal/er"
)

// DeriveDefaultHypertext builds the canonical "default site" over a data
// schema: for every entity, a browse page (index of all instances) and a
// detail page (data unit plus one relationship-scoped index per
// relationship the entity participates in), fully linked. This is the
// CASE-tool bootstrap move — combined with er.Reverse it turns any
// conforming database into a browsable application in one step; the
// designer then reshapes the model rather than starting blank.
func DeriveDefaultHypertext(name string, schema *er.Schema) (*Model, error) {
	b := NewBuilder(name, schema)
	sv := b.SiteView("main", "Default Site")

	// One browse + detail page per entity.
	details := map[string]*PageBuilder{}
	for _, e := range schema.Entities {
		browse := sv.Page("browse"+ident(e.Name), e.Name+" list").Landmark().Layout("one-column")
		browse.Index("idx"+ident(e.Name), e.Name, defaultDisplay(e)...)

		detail := sv.Page("detail"+ident(e.Name), e.Name).Layout("two-column")
		details[strings.ToLower(e.Name)] = detail
		data := detail.Data("data"+ident(e.Name), e.Name, allDisplay(e)...)
		data.Selector = []Condition{{Attr: "oid", Op: "=", Param: "id"}}
	}

	// Links: browse index -> detail page; detail data -> related indexes.
	for _, e := range schema.Entities {
		detail := details[strings.ToLower(e.Name)]
		b.Link("idx"+ident(e.Name), detail.Ref(), P("oid", "id"))
		for _, rel := range schema.Relationships {
			var other string
			switch {
			case strings.EqualFold(rel.From, e.Name):
				other = rel.To
			case strings.EqualFold(rel.To, e.Name):
				other = rel.From
			default:
				continue
			}
			otherEnt := schema.Entity(other)
			if otherEnt == nil {
				continue
			}
			// A relationship-scoped index of the related entity inside
			// this entity's detail page, fed by a transport link.
			relIdxID := "rel" + ident(e.Name) + ident(rel.Name)
			relIdx := detail.Index(relIdxID, other, defaultDisplay(otherEnt)...)
			relIdx.Relationship = rel.Name
			b.Transport("data"+ident(e.Name), relIdxID, P("oid", "parent"))
			// Each related instance links to its own detail page.
			if od, ok := details[strings.ToLower(other)]; ok {
				b.Link(relIdxID, od.Ref(), P("oid", "id"))
			}
		}
	}
	return b.Build()
}

// defaultDisplay picks up to two leading attributes for list renditions.
func defaultDisplay(e *er.Entity) []string {
	var out []string
	for _, a := range e.Attributes {
		out = append(out, a.Name)
		if len(out) == 2 {
			break
		}
	}
	return out
}

func allDisplay(e *er.Entity) []string {
	out := make([]string, len(e.Attributes))
	for i, a := range e.Attributes {
		out[i] = a.Name
	}
	return out
}

func ident(s string) string {
	return strings.ReplaceAll(strings.Title(strings.ToLower(s)), " ", "") //nolint:staticcheck // ASCII entity names
}
