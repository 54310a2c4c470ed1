package render

// The tree-walking render that serve programs replaced, kept as the
// reference they are checked against: parse (and style) the template per
// request, substitute every custom tag with a raw node
// holding its unit's markup, insert the menu, serialize. It is slow and
// allocates per node on purpose — it is what the bytes are defined by.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/style"
	"webmlgo/internal/workload"
)

// oracleUnit is one unit's markup (or the not-computed comment).
func oracleUnit(e *Engine, rc *Context, unitID string) (string, error) {
	bean := rc.State.Beans[unitID]
	if bean == nil {
		return "<!-- unit " + unitID + " not computed -->", nil
	}
	tag, ok := e.Tags[bean.Kind]
	if !ok {
		return "", fmt.Errorf("render: no tag renderer for unit kind %q", bean.Kind)
	}
	var b bytes.Buffer
	tag(rc, &b, bean)
	return b.String(), nil
}

func oracleRender(e *Engine, pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, edge bool) ([]byte, error) {
	src, ok := e.Repo.Template(pd.Template)
	if !ok {
		return nil, fmt.Errorf("render: no template %q", pd.Template)
	}
	tpl, err := dom.Parse(src)
	if err != nil {
		return nil, err
	}
	if e.Styler != nil {
		if err := e.Styler.Style(pd, tpl, ctx.UserAgent); err != nil {
			return nil, err
		}
	}

	rc := &Context{Page: pd, State: state, Request: ctx}
	var renderErr error
	tpl.Walk(func(n *dom.Node) bool {
		if renderErr != nil {
			return false
		}
		if n.Type != dom.ElementNode || !strings.HasPrefix(n.Tag, "webml:") {
			return true
		}
		unitID, _ := n.Attr("id")
		if edge {
			src := mvc.FragmentURL(e.Repo, pd.ID, unitID, ctx.Params)
			n.ReplaceWith(dom.NewRaw(`<esi:include src="` + dom.EscapeAttr(src) + `"/>`))
			return false
		}
		if state.Beans[unitID] == nil {
			n.ReplaceWith(dom.NewComment(" unit " + unitID + " not computed "))
			return false
		}
		markup, err := oracleUnit(e, rc, unitID)
		if err != nil {
			renderErr = err
			return false
		}
		n.ReplaceWith(dom.NewRaw(markup))
		return false
	})
	if renderErr != nil {
		return nil, renderErr
	}
	if len(pd.Menu) > 0 {
		if body := tpl.Find(dom.ByTag("body")); body != nil {
			var nb bytes.Buffer
			nb.WriteString(`<nav class="webml-menu">`)
			for _, item := range pd.Menu {
				fmt.Fprintf(&nb, `<a href="/%s">%s</a> `,
					dom.EscapeAttr(item.Action), dom.EscapeText(item.Label))
			}
			nb.WriteString(`</nav>`)
			menu := dom.NewRaw(nb.String())
			menu.Parent = body
			body.Children = append([]*dom.Node{menu}, body.Children...)
		}
	}
	var b bytes.Buffer
	if ctx.Error != "" {
		fmt.Fprintf(&b, `<div class="webml-error">%s</div>`, dom.EscapeText(ctx.Error))
	}
	dom.Serialize(&b, tpl)
	return b.Bytes(), nil
}

// checkAgainstOracle renders one page every way the engine can — inline
// (twice, so the second runs the kept program), as an ESI container,
// and fragment by fragment, a unit the page lacks included — and wants the
// oracle's bytes each time.
func checkAgainstOracle(t *testing.T, e *Engine, pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext) {
	t.Helper()
	same := func(what string, got []byte, err error, want []byte, wantErr error) {
		t.Helper()
		if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("page %s, agent %q, %s: program and oracle differ\nprogram (err %v):\n%s\noracle (err %v):\n%s",
				pd.ID, ctx.UserAgent, what, err, got, wantErr, want)
		}
	}
	want, wantErr := oracleRender(e, pd, state, ctx, false)
	for _, pass := range []string{"inline", "inline again"} {
		got, err := e.RenderPage(pd, state, ctx)
		same(pass, got, err, want, wantErr)
	}
	want, wantErr = oracleRender(e, pd, nil, ctx, true)
	got, err := e.RenderContainer(pd, ctx)
	same("container", got, err, want, wantErr)
	rc := &Context{Page: pd, State: state, Request: ctx}
	for _, u := range append([]descriptor.UnitRef{{ID: "no-such-unit"}}, pd.Units...) {
		markup, wantErr := oracleUnit(e, rc, u.ID)
		got, err := e.RenderUnitFragment(pd, state, ctx, u.ID)
		same("fragment "+u.ID, got, err, []byte(markup), wantErr)
	}
}

// engines returns the two deployments of one repository: plain and
// runtime-styled, with the user agents that reach each variant.
func engines(repo *descriptor.Repository) (es []*Engine, agents [][]string) {
	s, err := style.NewStyler(style.MultiDevice(style.B2CRuleSet()))
	if err != nil {
		panic(err)
	}
	plain, styled := NewEngine(repo), NewEngine(repo)
	styled.Styler = s
	return []*Engine{plain, styled},
		[][]string{{""}, {"Mozilla/5.0 (X11; Linux x86_64)", "Mozilla/5.0 (iPhone) Mobile Safari", "Opera/9.80 (Android)"}}
}

// TestProgramMatchesOracleAcerEuro: every page of the paper-sized
// application, computed over real rows, in every mode.
func TestProgramMatchesOracleAcerEuro(t *testing.T) {
	model, err := workload.Generate(workload.AcerEuro())
	if err != nil {
		t.Fatal(err)
	}
	g, err := codegen.New(model)
	if err != nil {
		t.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	db := rdb.Open()
	for _, stmt := range art.DDL {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := workload.Populate(db, 30, workload.AcerEuro().Seed); err != nil {
		t.Fatal(err)
	}
	pages := &mvc.PageService{Repo: art.Repo, Business: mvc.NewLocalBusiness(db)}
	es, agents := engines(art.Repo)
	type variant struct {
		engine int
		name   string
	}
	variants := map[variant]bool{}
	for i, pd := range art.Repo.Pages() {
		// Every third page redisplays an operation failure.
		ctx := mvc.RequestContext{Params: map[string]mvc.Value{"id": int64(3), "kw": "Product", "offset": int64(10)}}
		if i%3 == 0 {
			ctx.Error = "validation <failed>"
		}
		state, err := pages.ComputePage(context.Background(), pd.ID, ctx.Params, nil)
		if err != nil {
			t.Fatalf("page %s: %v", pd.ID, err)
		}
		for k, e := range es {
			for _, ua := range agents[k] {
				ctx.UserAgent = ua
				checkAgainstOracle(t, e, pd, state, &ctx)
				variants[variant{k, e.variant(&ctx)}] = true
			}
		}
	}
	if n := len(art.Repo.Pages()); n != workload.AcerEuro().Pages {
		t.Fatalf("checked %d pages, want %d", n, workload.AcerEuro().Pages)
	}
	// The plain engine's "", and the styled engine's "" (desktop) and
	// "mobile".
	if len(variants) != 3 {
		t.Fatalf("variants reached: %v, want 3", variants)
	}
	// The cache is bounded by pages x variants however many agents ask.
	if got, limit := len(es[1].programs), 2*len(art.Repo.Pages()); got != limit {
		t.Fatalf("styled engine holds %d programs for %d pages in 2 variants", got, limit/2)
	}
}

// TestProgramMatchesOracleShapes: the template shapes the generator does
// not produce.
func TestProgramMatchesOracleShapes(t *testing.T) {
	menu := []descriptor.MenuItem{{Action: "page/home", Label: "Home"}, {Action: "page/a&b", Label: "A <&> B"}}
	for _, c := range []struct {
		name, tpl string
		menu      []descriptor.MenuItem
		errText   string
		drop      string // a bean the page did not compute
	}{
		{name: "menu, three units", tpl: tplP1, menu: menu},
		{name: "no menu", tpl: tplP1},
		{name: "error banner", tpl: tplP1, menu: menu, errText: "it <failed> & how"},
		{name: "empty body", tpl: `<html><head><title>t</title></head><body></body></html>`, menu: menu},
		{name: "empty body, no menu", tpl: `<html><body></body></html>`},
		{name: "no body", tpl: `<div class="bare"><webml:dataUnit id="d1"/> &amp; text</div>`, menu: menu},
		{name: "no units", tpl: `<html><body><p>static &lt;only&gt;</p><!-- note --><br></body></html>`, menu: menu},
		{name: "several roots", tpl: `<!-- head --><webml:dataUnit id="d1"/><p>tail</p>`, menu: menu},
		{name: "one kind twice, one unit twice", tpl: `<html><body><webml:indexUnit id="i1"/><hr><webml:indexUnit id="i2"/><webml:indexUnit id="i1"/></body></html>`},
		{name: "adjacent slots at both ends", tpl: `<body><webml:dataUnit id="d1"/><webml:entryUnit id="e1"/></body>`, menu: menu},
		{name: "tag without id, tag with children", tpl: `<html><body><webml:dataUnit/><webml:dataUnit id="d1"><webml:indexUnit id="i1"/>dropped</webml:dataUnit></body></html>`},
		{name: "bean not computed", tpl: tplP1, menu: menu, drop: "i1"},
		{name: "script and style stay raw", tpl: `<html><head><style>a > b { c: "d" }</style><script>if (a < b && c) {}</script></head><body><webml:dataUnit id="d1"/></body></html>`, menu: menu},
	} {
		t.Run(c.name, func(t *testing.T) {
			pd, state, ctx := pageFixture()
			pd.Menu, ctx.Error = c.menu, c.errText
			second := *state.Beans["i1"]
			second.UnitID = "i2"
			state.Beans["i2"] = &second
			delete(state.Beans, c.drop)
			repo := descriptor.NewRepository()
			repo.PutPage(pd)
			repo.PutTemplate(pd.Template, c.tpl)
			es, agents := engines(repo)
			es[1].Styler = fakeStyler{} // the B2C page rule refuses a template without <body>, as some of these are
			for k, e := range es {
				for _, ua := range agents[k] {
					ctx.UserAgent = ua
					checkAgainstOracle(t, e, pd, state, ctx)
				}
			}
		})
	}
}

// TestProgramErrors: a render that cannot succeed fails the way the tree
// walk did, and a template spelling the slot mark is refused, not
// mis-cut.
func TestProgramErrors(t *testing.T) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, `<html><body>`+slotMark+`<webml:dataUnit id="d1"/></body></html>`)
	if _, err := e.RenderPage(pd, state, ctx); err == nil || !strings.Contains(err.Error(), "slot mark") {
		t.Fatalf("template with the slot mark: err %v", err)
	}
	e = engineWith(pd, tplP1)
	state.Beans["i1"].Kind = "weird"
	checkAgainstOracle(t, e, pd, state, ctx)
	if _, err := e.RenderPage(pd, state, ctx); err == nil {
		t.Fatal("unknown unit kind rendered")
	}
}
