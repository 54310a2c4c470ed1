// Package baseline implements the template-based approach of Section 2:
// "each page of the application that publishes dynamic content is mapped
// to one page template, which includes the static markup of the page and
// server side scripting instructions" doing request decoding, query
// execution, and markup generation — with the control logic "scattered
// through the templates and hard-wired; each template embeds the URLs
// pointing to the other templates callable from that page".
//
// It exists as the comparison baseline for experiment E2: same pages,
// same queries, same output content class — but one monolithic handler
// per page, no descriptors, no generic services, hardwired topology.
package baseline

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
)

// App is the hand-written-style application: one handler ("page
// template") per page.
type App struct {
	DB *rdb.DB
	// handlers maps page ID -> its monolithic template function.
	handlers map[string]http.HandlerFunc
	stats    Stats
	// urlRefs maps target page ID -> the page IDs whose templates embed
	// a hardwired URL to it (the maintenance liability of Section 2).
	urlRefs map[string][]string
}

// Stats quantifies the baseline implementation.
type Stats struct {
	// Templates is the number of monolithic page templates (one per
	// page).
	Templates int
	// EmbeddedQueries counts SQL strings embedded in template code.
	EmbeddedQueries int
	// HardwiredURLs counts URLs baked into template code.
	HardwiredURLs int
}

// Build derives the template-based application from the same model and
// generated SQL the MVC implementation uses, simulating what a
// programmer would hand-write per page.
func Build(model *webml.Model, art *codegen.Artifacts, db *rdb.DB) *App {
	app := &App{DB: db, handlers: map[string]http.HandlerFunc{}, urlRefs: map[string][]string{}}
	for _, p := range model.AllPages() {
		pd := art.Repo.Page(p.ID)
		app.handlers[p.ID] = app.buildPageTemplate(model, art.Repo, pd)
		app.stats.Templates++
	}
	return app
}

// Stats returns the implementation counters.
func (a *App) Stats() Stats { return a.stats }

// ServeHTTP routes /tpl/<pageID> to the page's monolithic template.
func (a *App) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/tpl/")
	h, ok := a.handlers[id]
	if !ok {
		http.NotFound(w, r)
		return
	}
	h(w, r)
}

// TemplatesReferencing returns the page IDs whose templates hardwire a
// URL to the target page. Relocating or renaming the target page forces
// manual edits in every one of them; the MVC implementation instead
// regenerates the Controller's configuration file and touches zero
// templates (Section 7).
func (a *App) TemplatesReferencing(targetPageID string) []string {
	refs := append([]string(nil), a.urlRefs[targetPageID]...)
	sort.Strings(refs)
	return refs
}

// buildPageTemplate assembles the monolithic handler of one page. The
// closure does everything inline: parameter decoding, query execution
// (the SQL strings are embedded in the "template"), markup generation,
// and hardwired URLs to other templates.
func (a *App) buildPageTemplate(model *webml.Model, repo *descriptor.Repository, pd *descriptor.Page) http.HandlerFunc {
	type inlineUnit struct {
		d       *descriptor.Unit
		anchors []descriptor.Anchor
	}
	var units []inlineUnit
	incoming := map[string][]descriptor.Edge{}
	for _, e := range pd.Edges {
		incoming[e.To] = append(incoming[e.To], e)
	}
	for _, ur := range pd.Units {
		iu := inlineUnit{d: repo.Unit(ur.ID)}
		for _, anc := range pd.Anchors {
			if anc.FromUnit == ur.ID {
				// Rewrite the action to the template-based URL space:
				// the hardwired topology of Section 2.
				hard := anc
				hard.Action = strings.Replace(anc.Action, "page/", "tpl/", 1)
				iu.anchors = append(iu.anchors, hard)
				if target := strings.TrimPrefix(anc.Action, "page/"); target != anc.Action {
					a.urlRefs[target] = append(a.urlRefs[target], pd.ID)
					a.stats.HardwiredURLs++
				}
			}
		}
		if iu.d != nil {
			if iu.d.Query != "" {
				a.stats.EmbeddedQueries++
			}
			if iu.d.CountQuery != "" {
				a.stats.EmbeddedQueries++
			}
			a.stats.EmbeddedQueries += len(iu.d.Levels)
		}
		units = append(units, iu)
	}

	return func(w http.ResponseWriter, r *http.Request) {
		_ = r.ParseForm()
		params := map[string]mvc.Value{}
		for k, vs := range r.Form {
			if len(vs) > 0 {
				params[k] = mvc.ConvertParam(vs[0])
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "<html><head><title>%s</title></head><body><table class=\"page-grid\">", pd.Name)
		computed := map[string]map[string]mvc.Value{}
		for _, iu := range units {
			if iu.d == nil {
				continue
			}
			b.WriteString("<tr><td>")
			a.renderUnitInline(&b, iu.d, iu.anchors, params, incoming[iu.d.ID], computed)
			b.WriteString("</td></tr>")
		}
		b.WriteString("</table></body></html>")
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, b.String())
	}
}

// renderUnitInline is the "server side scripting" block of one unit:
// bind parameters, run the embedded SQL, emit markup — all mixed
// together, which is exactly problem 1 of Section 2.
func (a *App) renderUnitInline(b *strings.Builder, d *descriptor.Unit, anchors []descriptor.Anchor,
	params map[string]mvc.Value, edges []descriptor.Edge, computed map[string]map[string]mvc.Value) {
	switch d.Kind {
	case "entry":
		action := ""
		if len(anchors) > 0 {
			action = "/" + anchors[0].Action
		}
		fmt.Fprintf(b, `<form method="get" action="%s">`, action)
		for _, f := range d.Fields {
			name := f.Name
			if len(anchors) > 0 {
				for _, p := range anchors[0].Params {
					if p.Source == f.Name {
						name = p.Target
					}
				}
			}
			fmt.Fprintf(b, `<label>%s <input type="text" name="%s"></label>`, f.Name, name)
		}
		b.WriteString(`<input type="submit" value="submit"></form>`)
		return
	}

	// Resolve inputs: request params, then intra-page values computed by
	// earlier blocks of this same template.
	inputs := map[string]mvc.Value{}
	for _, p := range d.Inputs {
		if v, ok := params[p.Name]; ok {
			inputs[p.Name] = v
		}
	}
	for _, e := range edges {
		src := computed[e.From]
		if src == nil {
			continue
		}
		for _, pm := range e.Params {
			if v, ok := src[pm.Source]; ok {
				inputs[pm.Target] = v
			}
		}
	}
	if d.Kind == "scroller" {
		if _, ok := inputs["offset"]; !ok {
			inputs["offset"] = int64(0)
		}
	}
	args := make([]rdb.Value, 0, len(d.Inputs))
	for _, p := range d.Inputs {
		v, ok := inputs[p.Name]
		if !ok {
			fmt.Fprintf(b, `<span class="empty">no content</span>`)
			return
		}
		if p.Wildcard {
			v = "%" + mvc.FormatParam(v) + "%"
		}
		args = append(args, v)
	}
	rows, err := a.DB.Query(d.Query, args...)
	if err != nil {
		fmt.Fprintf(b, `<span class="error">%s</span>`, err)
		return
	}
	maps := rows.Maps()
	if len(maps) > 0 {
		computed[d.ID] = maps[0]
	}
	b.WriteString("<ul>")
	for _, row := range maps {
		b.WriteString("<li>")
		label := rowLabel(d, row)
		if len(anchors) > 0 {
			anc := anchors[0]
			qs := make([]string, 0, len(anc.Params))
			for _, p := range anc.Params {
				if v, ok := row[p.Source]; ok {
					qs = append(qs, p.Target+"="+mvc.FormatParam(v))
				}
			}
			fmt.Fprintf(b, `<a href="/%s?%s">%s</a>`, anc.Action, strings.Join(qs, "&amp;"), label)
		} else {
			b.WriteString(label)
		}
		// Hierarchical levels, inline and recursive — more embedded SQL.
		if len(d.Levels) > 0 {
			a.renderLevelInline(b, d.Levels, row["oid"])
		}
		b.WriteString("</li>")
	}
	b.WriteString("</ul>")
}

func (a *App) renderLevelInline(b *strings.Builder, levels []descriptor.Level, oid mvc.Value) {
	if len(levels) == 0 || oid == nil {
		return
	}
	lvl := levels[0]
	rows, err := a.DB.Query(lvl.Query, oid)
	if err != nil {
		fmt.Fprintf(b, `<span class="error">%s</span>`, err)
		return
	}
	b.WriteString("<ul>")
	for _, row := range rows.Maps() {
		b.WriteString("<li>")
		for _, o := range lvl.Outputs {
			if o.Name == "oid" {
				continue
			}
			fmt.Fprintf(b, "%v ", row[o.Column])
		}
		a.renderLevelInline(b, levels[1:], row["oid"])
		b.WriteString("</li>")
	}
	b.WriteString("</ul>")
}

func rowLabel(d *descriptor.Unit, row map[string]rdb.Value) string {
	for _, o := range d.Outputs {
		if o.Name == "oid" {
			continue
		}
		if v, ok := row[o.Column]; ok {
			return fmt.Sprintf("%v", v)
		}
	}
	return fmt.Sprintf("%v", row["oid"])
}

// ChangeImpact compares the maintenance cost of a topology change in the
// two architectures: relocating targetPage (new URL / new position in
// the hypertext).
type ChangeImpact struct {
	// BaselineTemplatesTouched is how many page templates must be edited
	// by hand in the template-based implementation.
	BaselineTemplatesTouched int
	// MVCTemplatesTouched is always 0: the WebML diagram is relinked and
	// "the code generator re-builds the new configuration file"
	// (Section 7).
	MVCTemplatesTouched int
	// MVCConfigRegenerated is true: the one regenerated artifact.
	MVCConfigRegenerated bool
}

// ImpactOfMovingPage computes the change impact of relocating a page.
func (a *App) ImpactOfMovingPage(targetPageID string) ChangeImpact {
	return ChangeImpact{
		BaselineTemplatesTouched: len(a.TemplatesReferencing(targetPageID)),
		MVCTemplatesTouched:      0,
		MVCConfigRegenerated:     true,
	}
}
