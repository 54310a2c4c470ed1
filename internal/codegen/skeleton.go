package codegen

import (
	"strings"

	"webmlgo/internal/dom"
	"webmlgo/internal/webml"
)

// A unit's custom tag is tagPrefix + kind + tagSuffix; TagForKind,
// KindForTag and Skeleton share the two halves.
const tagPrefix, tagSuffix = "webml:", "Unit"

// TagForKind returns the custom tag name rendering a unit kind in the
// View ("<webml:dataUnit>" and friends, Figure 7).
func TagForKind(kind webml.UnitKind) string {
	return tagPrefix + string(kind) + tagSuffix
}

// KindForTag is the inverse of TagForKind; ok is false for non-unit tags.
func KindForTag(tag string) (webml.UnitKind, bool) {
	k, hasPrefix := strings.CutPrefix(tag, tagPrefix)
	k, hasSuffix := strings.CutSuffix(k, tagSuffix)
	if !hasPrefix || !hasSuffix || k == "" {
		return "", false
	}
	return webml.UnitKind(k), true
}

// Skeleton produces the page template skeleton of Figure 7: "all the
// custom tags corresponding to the units of the page, but only the
// minimal HTML mark-up needed to define the layout grid of the page and
// the position of the various units in such a grid". Presentation rules
// (internal/style) later transform it into the final template.
//
// The markup is written as text, byte for byte what internal/dom would
// serialize for the same tree: a model-to-text transformation has no use
// for a tree it would only throw away.
func (g *Generator) Skeleton(p *webml.Page) string {
	var b textBuf
	b.Grow(128 + 80*len(p.Units))
	b.put(`<html data-page="`, dom.EscapeAttr(p.ID))
	if p.Layout != "" {
		b.put(`" data-layout="`, dom.EscapeAttr(p.Layout))
	}
	b.put(`"><head><title>`, dom.EscapeText(p.Name), `</title></head><body><table class="page-grid"`)
	if len(p.Units) == 0 {
		b.put("/></body></html>")
		return b.String()
	}
	b.put(">")
	for _, u := range p.Units {
		b.put("<tr><td><"+tagPrefix, string(u.Kind), tagSuffix+` id="`, dom.EscapeAttr(u.ID))
		if u.Name != "" {
			b.put(`" data-name="`, dom.EscapeAttr(u.Name))
		}
		b.put(`"/></td></tr>`)
	}
	b.put("</table></body></html>")
	return b.String()
}
