package render

import (
	"bytes"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"webmlgo/internal/cell"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
	"webmlgo/internal/mvc"
)

// pageFixture builds a small page descriptor + state by hand, so the
// renderer is tested independently of codegen and the database.
func pageFixture() (*descriptor.Page, *mvc.PageState, *mvc.RequestContext) {
	pd := &descriptor.Page{
		ID: "p1", Name: "P1", Template: "p1",
		Units: []descriptor.UnitRef{{ID: "d1"}, {ID: "i1"}, {ID: "e1"}},
		Anchors: []descriptor.Anchor{
			{FromUnit: "i1", Action: "page/p2", Params: []descriptor.EdgeParam{{Source: "oid", Target: "x"}}},
			{FromUnit: "e1", Action: "page/search", Params: []descriptor.EdgeParam{{Source: "q", Target: "kw"}}},
		},
	}
	state := &mvc.PageState{
		PageID: "p1",
		Order:  []string{"d1", "i1", "e1"},
		Beans: map[string]*mvc.UnitBean{
			"d1": {UnitID: "d1", Kind: "data", Fields: []string{"oid", "Title"},
				Nodes: []mvc.Node{{Values: cells(int64(1), "A <b>bold</b> title")}}},
			"i1": {UnitID: "i1", Kind: "index", Fields: []string{"oid", "Name"},
				Nodes: []mvc.Node{
					{Values: cells(int64(10), "first")},
					{Values: cells(int64(11), "second")},
				}},
			"e1": {UnitID: "e1", Kind: "entry",
				FormFields: []mvc.FormField{{Name: "q", Type: "TEXT", Required: true, Value: `pre"filled`}}},
		},
	}
	ctx := &mvc.RequestContext{Params: map[string]mvc.Value{}}
	return pd, state, ctx
}

func engineWith(pd *descriptor.Page, tpl string) *Engine {
	repo := descriptor.NewRepository()
	repo.PutPage(pd)
	repo.PutTemplate(pd.Template, tpl)
	return NewEngine(repo)
}

const tplP1 = `<html><body><table class="page-grid">
<tr><td><webml:dataUnit id="d1"/></td></tr>
<tr><td><webml:indexUnit id="i1"/></td></tr>
<tr><td><webml:entryUnit id="e1"/></td></tr>
</table></body></html>`

func TestRenderPageSubstitutesAllTags(t *testing.T) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	out, err := e.RenderPage(pd, state, ctx)
	if err != nil {
		t.Fatal(err)
	}
	body := string(out)
	if strings.Contains(body, "webml:") {
		t.Fatalf("custom tags left in output:\n%s", body)
	}
	for _, want := range []string{"webml-data", "webml-index", "webml-entry", "page-grid"} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q:\n%s", want, body)
		}
	}
}

func TestDataTagEscapesContent(t *testing.T) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	out, _ := e.RenderPage(pd, state, ctx)
	if strings.Contains(string(out), "<b>bold</b>") {
		t.Fatal("HTML injection: bean content not escaped")
	}
	if !strings.Contains(string(out), "A &lt;b&gt;bold&lt;/b&gt; title") {
		t.Fatalf("escaped content missing:\n%s", out)
	}
}

func TestIndexTagAnchors(t *testing.T) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	out, _ := e.RenderPage(pd, state, ctx)
	if !strings.Contains(string(out), `<a href="/page/p2?x=10">first</a>`) {
		t.Fatalf("anchor missing:\n%s", out)
	}
	if !strings.Contains(string(out), `<a href="/page/p2?x=11">second</a>`) {
		t.Fatalf("anchor missing:\n%s", out)
	}
}

func TestEntryTagRenamesFieldsAndSticksValues(t *testing.T) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	out, _ := e.RenderPage(pd, state, ctx)
	body := string(out)
	if !strings.Contains(body, `action="/page/search"`) {
		t.Fatalf("form action missing:\n%s", body)
	}
	// Field q renamed to kw by the anchor parameter mapping.
	if !strings.Contains(body, `name="kw"`) {
		t.Fatalf("field rename missing:\n%s", body)
	}
	if !strings.Contains(body, `value="pre&quot;filled"`) {
		t.Fatalf("sticky value not escaped/rendered:\n%s", body)
	}
}

func TestEntryTagShowsErrors(t *testing.T) {
	pd, state, ctx := pageFixture()
	state.Beans["e1"].Errors = map[string]string{"q": "required"}
	e := engineWith(pd, tplP1)
	out, _ := e.RenderPage(pd, state, ctx)
	if !strings.Contains(string(out), `<span class="webml-field-error">required</span>`) {
		t.Fatalf("error span missing:\n%s", out)
	}
}

func TestHierarchicalIndexNestsAndLinksLeaves(t *testing.T) {
	pd, state, ctx := pageFixture()
	state.Beans["i1"].LevelFields = [][]string{{"oid", "Child"}}
	state.Beans["i1"].Nodes = []mvc.Node{
		{Values: cells(int64(1), "parent"),
			Children: []mvc.Node{
				{Values: cells(int64(5), "kid")},
			}},
	}
	e := engineWith(pd, tplP1)
	out, _ := e.RenderPage(pd, state, ctx)
	body := string(out)
	if !strings.Contains(body, "webml-level-0") || !strings.Contains(body, "webml-level-1") {
		t.Fatalf("levels missing:\n%s", body)
	}
	// The anchor applies to the leaf with the leaf's oid.
	if !strings.Contains(body, `<a href="/page/p2?x=5">kid</a>`) {
		t.Fatalf("leaf anchor missing:\n%s", body)
	}
	// The parent renders as plain text.
	if strings.Contains(body, `x=1">parent`) {
		t.Fatal("anchor applied to non-leaf level")
	}
}

func TestMultidataAndMultichoiceTags(t *testing.T) {
	pd := &descriptor.Page{
		ID: "p", Template: "p",
		Units: []descriptor.UnitRef{{ID: "md"}, {ID: "mc"}},
		Anchors: []descriptor.Anchor{
			{FromUnit: "mc", Action: "op/connect", Params: []descriptor.EdgeParam{{Source: "oid", Target: "to"}}},
		},
	}
	state := &mvc.PageState{PageID: "p", Beans: map[string]*mvc.UnitBean{
		"md": {UnitID: "md", Kind: "multidata", Fields: []string{"oid", "T"},
			Nodes: []mvc.Node{{Values: cells(int64(1), "v1")}}},
		"mc": {UnitID: "mc", Kind: "multichoice", Fields: []string{"oid", "T"},
			Nodes: []mvc.Node{{Values: cells(int64(2), "v2")}}},
	}}
	e := engineWith(pd, `<html><body><webml:multidataUnit id="md"/><webml:multichoiceUnit id="mc"/></body></html>`)
	out, err := e.RenderPage(pd, state, &mvc.RequestContext{})
	if err != nil {
		t.Fatal(err)
	}
	body := string(out)
	if !strings.Contains(body, "<table><tr><th>T</th>") || !strings.Contains(body, "<td>v1</td>") {
		t.Fatalf("multidata table missing:\n%s", body)
	}
	if !strings.Contains(body, `action="/op/connect"`) ||
		!strings.Contains(body, `<input type="checkbox" name="to" value="2">`) {
		t.Fatalf("multichoice form missing:\n%s", body)
	}
}

func TestScrollerNavigationPreservesParams(t *testing.T) {
	pd := &descriptor.Page{ID: "p", Template: "p", Units: []descriptor.UnitRef{{ID: "s"}}}
	state := &mvc.PageState{PageID: "p", Beans: map[string]*mvc.UnitBean{
		"s": {UnitID: "s", Kind: "scroller", Fields: []string{"oid", "T"},
			Total: 25, Offset: 10, PageSize: 10,
			Nodes: []mvc.Node{{Values: cells(int64(1), "x")}}},
	}}
	ctx := &mvc.RequestContext{Params: map[string]mvc.Value{"kw": "web", "offset": int64(10), "_error": "y"}}
	e := engineWith(pd, `<html><body><webml:scrollerUnit id="s"/></body></html>`)
	out, err := e.RenderPage(pd, state, ctx)
	if err != nil {
		t.Fatal(err)
	}
	body := string(out)
	if !strings.Contains(body, `href="/page/p?kw=web&amp;offset=0">prev</a>`) {
		t.Fatalf("prev missing:\n%s", body)
	}
	if !strings.Contains(body, `href="/page/p?kw=web&amp;offset=20">next</a>`) {
		t.Fatalf("next missing:\n%s", body)
	}
	if strings.Contains(body, "_error") {
		t.Fatal("internal parameter leaked into scroll URLs")
	}
	if !strings.Contains(body, "11-11 of 25") {
		t.Fatalf("window info missing:\n%s", body)
	}
}

func TestMissingBeanRendersComment(t *testing.T) {
	pd, state, ctx := pageFixture()
	delete(state.Beans, "i1")
	e := engineWith(pd, tplP1)
	out, err := e.RenderPage(pd, state, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "<!-- unit i1 not computed -->") {
		t.Fatalf("missing-bean comment absent:\n%s", out)
	}
}

func TestMissingTemplateAndUnknownKindErrors(t *testing.T) {
	pd, state, ctx := pageFixture()
	repo := descriptor.NewRepository()
	repo.PutPage(pd)
	e := NewEngine(repo)
	if _, err := e.RenderPage(pd, state, ctx); err == nil {
		t.Fatal("missing template accepted")
	}
	repo.PutTemplate("p1", `<html><webml:weirdUnit id="d1"/></html>`)
	state.Beans["d1"].Kind = "weird"
	if _, err := e.RenderPage(pd, state, ctx); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestPluginTagRegistration(t *testing.T) {
	pd := &descriptor.Page{ID: "p", Template: "p", Units: []descriptor.UnitRef{{ID: "f"}}}
	state := &mvc.PageState{PageID: "p", Beans: map[string]*mvc.UnitBean{
		"f": {UnitID: "f", Kind: "feed", Props: map[string]string{"url": "http://x"}},
	}}
	e := engineWith(pd, `<html><body><webml:feedUnit id="f"/></body></html>`)
	e.RegisterTag("feed", func(rc *Context, w *bytes.Buffer, bean *mvc.UnitBean) {
		w.WriteString(`<div class="feed">` + dom.EscapeText(bean.Props["url"]) + `</div>`)
	})
	out, err := e.RenderPage(pd, state, &mvc.RequestContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `<div class="feed">http://x</div>`) {
		t.Fatalf("plug-in tag not rendered:\n%s", out)
	}
}

func TestErrorBannerRendered(t *testing.T) {
	pd, state, ctx := pageFixture()
	ctx.Error = "operation failed"
	e := engineWith(pd, tplP1)
	out, _ := e.RenderPage(pd, state, ctx)
	if !strings.HasPrefix(string(out), `<div class="webml-error">operation failed</div>`) {
		t.Fatalf("error banner missing:\n%s", out)
	}
}

// fakeStyler marks the body with the variant name.
type fakeStyler struct{}

func (fakeStyler) Variant(ua string) string { return ua }

func (fakeStyler) VariesByUserAgent() bool { return true }

func (fakeStyler) Style(_ *descriptor.Page, tpl *dom.Node, ua string) error {
	if body := tpl.Find(dom.ByTag("body")); body != nil {
		body.SetAttr("data-device", ua)
	}
	return nil
}

// TestTemplateCompiledOncePerVariant: a template compiles once per page
// and variant, and the program serves from then on, even after the
// template text is replaced in the repository.
func TestTemplateCompiledOncePerVariant(t *testing.T) {
	pd, state, ctx := pageFixture()
	twin, other := *pd, *pd // a second page on the same template, a third on its own
	twin.ID, other.ID, other.Template = "p1twin", "p3", "p3"
	repo := descriptor.NewRepository()
	for _, p := range []*descriptor.Page{pd, &twin, &other} {
		repo.PutPage(p)
		repo.PutTemplate(p.Template, tplP1)
	}
	e := NewEngine(repo)
	e.Styler = fakeStyler{}
	each := func(why string) {
		t.Helper()
		for _, p := range []*descriptor.Page{pd, &twin, &other} {
			for _, ua := range []string{"desktop", "mobile"} {
				ctx.UserAgent = ua
				out, err := e.RenderPage(p, state, ctx)
				if err != nil || !strings.Contains(string(out), `data-device="`+ua+`"`) {
					t.Fatalf("page %s for %s: err %v\n%s", p.ID, ua, err, out)
				}
				if strings.Contains(string(out), `id="v2"`) {
					t.Fatalf("page %s for %s: %s", p.ID, ua, why)
				}
			}
		}
	}
	each("v2 before it was deployed")
	const next = `<html><body id="v2"><webml:dataUnit id="d1"/></body></html>`
	repo.PutTemplate("p1", next)
	repo.PutTemplate("p3", next)
	each("program cache bypassed")
	if len(e.programs) != 6 {
		t.Fatalf("%d programs for 3 pages in 2 variants", len(e.programs))
	}
}

// TestRegisterTagAfterFirstRender: programs name units, not renderers, so
// a tag installed (or replaced) once pages are compiled serves at once.
func TestRegisterTagAfterFirstRender(t *testing.T) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	if _, err := e.RenderPage(pd, state, ctx); err != nil {
		t.Fatal(err)
	}
	e.RegisterTag("data", func(_ *Context, w *bytes.Buffer, bean *mvc.UnitBean) {
		w.WriteString(`<b class="late">` + bean.UnitID + `</b>`)
	})
	out, err := e.RenderPage(pd, state, ctx)
	if err != nil || !strings.Contains(string(out), `<td><b class="late">d1</b></td>`) || strings.Contains(string(out), "webml-data") {
		t.Fatalf("late tag not serving (err %v):\n%s", err, out)
	}
}

// TestRedeployedPageRecompiles: a program carries its page's menu, so a
// descriptor replaced in the repository (hot redeployment) compiles anew.
func TestRedeployedPageRecompiles(t *testing.T) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	if out, _ := e.RenderPage(pd, state, ctx); strings.Contains(string(out), "webml-menu") {
		t.Fatal("menu on a page without landmarks")
	}
	redeployed := *pd
	redeployed.Menu = []descriptor.MenuItem{{Action: "page/home", Label: "Home"}}
	e.Repo.PutPage(&redeployed)
	if out, _ := e.RenderPage(e.Repo.Page("p1"), state, ctx); !strings.Contains(string(out), `<a href="/page/home">Home</a>`) {
		t.Fatalf("redeployed page served its old program:\n%s", out)
	}
	if len(e.programs) != 1 {
		t.Fatalf("%d programs for one page", len(e.programs))
	}
}

func TestLandmarkMenuRendered(t *testing.T) {
	pd, state, ctx := pageFixture()
	pd.Menu = []descriptor.MenuItem{
		{Action: "page/home", Label: "Home"},
		{Action: "page/catalog", Label: "Catalog & More"},
	}
	e := engineWith(pd, tplP1)
	out, err := e.RenderPage(pd, state, ctx)
	if err != nil {
		t.Fatal(err)
	}
	body := string(out)
	if !strings.Contains(body, `<nav class="webml-menu">`) {
		t.Fatalf("menu missing:\n%s", body)
	}
	if !strings.Contains(body, `<a href="/page/home">Home</a>`) {
		t.Fatalf("menu item missing:\n%s", body)
	}
	if !strings.Contains(body, "Catalog &amp; More") {
		t.Fatal("menu label not escaped")
	}
	// The menu precedes the page grid.
	if strings.Index(body, "webml-menu") > strings.Index(body, "page-grid") {
		t.Fatal("menu not at the top of the body")
	}
}

// FuzzAnchorHref: the href appended per row is byte for byte what the
// map-and-url.Values reference builds, for any UTF-8 (or not) in action,
// parameter names and values — including a repeated target, a source the
// row lacks, and an empty name.
func FuzzAnchorHref(f *testing.F) {
	f.Add("page/p2", "x", "a b", "y", "ü&=%+", int64(-7))
	f.Add("op/c?d", "", "", "same", "", int64(0))
	f.Add(`pa"ge/<p>&`, "same", "1", "same", "2", int64(255))
	f.Fuzz(func(t *testing.T, action, k1, v1, k2, v2 string, n int64) {
		fields := []string{"oid", "A", "B"}
		values := []mvc.Value{n, v1, v2}
		a := &descriptor.Anchor{Action: action, Params: []descriptor.EdgeParam{
			{Source: "B", Target: k2}, {Source: "A", Target: k1},
			{Source: "oid", Target: "id"}, {Source: "absent", Target: "never"}}}
		params := map[string]string{}
		for _, p := range a.Params {
			if i := mvc.FieldIndex(fields, p.Source); i >= 0 {
				params[p.Target] = mvc.FormatParam(values[i])
			}
		}
		var w bytes.Buffer
		l := newRowLink(a, `<a href="`, fields, "")
		l.appendHref(&w, cells(values...))
		if want := dom.EscapeAttr(mvc.ActionURL(action, params)); w.String() != want {
			t.Fatalf("href %q, reference %q", w.String(), want)
		}
	})
}

// FuzzScrollerHref: a scroller's prev/next href is byte for byte what
// the map-and-url.Values reference builds from the request parameters:
// names that start with "_" dropped, offset replaced, values in their
// parameter form, for any page ID, name and text — beside a float and a
// time parameter.
func FuzzScrollerHref(f *testing.F) {
	f.Add("p1", "_x", "hidden", 1.5, int64(0), 10)
	f.Add("p1", "offset", "20", 2.0, int64(1e9), 0)
	f.Add(`pa"ge<&>`, "a b&c=d+e", "x", 1e21, int64(-1), 5)
	f.Add("p", "q", "ünïcødé €", -0.5, int64(1700000000), 30)
	f.Fuzz(func(t *testing.T, pageID, key, text string, num float64, unix int64, offset int) {
		params := map[string]mvc.Value{"n": num, "at": time.Unix(unix, 0).In(time.FixedZone("", 3600)), key: text}
		ref := map[string]string{}
		for k, v := range params {
			if !strings.HasPrefix(k, "_") {
				ref[k] = mvc.FormatParam(v)
			}
		}
		ref["offset"] = strconv.Itoa(offset)
		var w bytes.Buffer
		appendScrollHref(&w, pageID, params, offset)
		if want := dom.EscapeAttr(mvc.ActionURL("page/"+pageID, ref)); w.String() != want {
			t.Fatalf("href %q, reference %q", w.String(), want)
		}
	})
}

// TestPutValueMatchesFormatParam: formatting a value in place must spell
// what escaping its parameter form spells, under every escaper the tags
// use — the "+" of 1e+21 and the ":" of a time are what a URL escapes.
func TestPutValueMatchesFormatParam(t *testing.T) {
	values := []mvc.Value{nil, int64(0), int64(-1 << 63), 1.5, 100.0, 1e21, -1e-7, math.NaN(), math.Inf(1),
		true, false, time.Date(2003, 1, 5, 10, 30, 0, 0, time.FixedZone("", 2*3600)), time.Unix(0, 0).UTC(),
		"a <b> & \"c\" d+e", "", int64(255), int64(256)}
	escapers := map[string]func(string) string{"text": dom.EscapeText, "attr": dom.EscapeAttr, "query": url.QueryEscape}
	for name, esc := range escapers {
		for i := -1; i <= len(values); i++ {
			var v mvc.Value
			if i >= 0 && i < len(values) {
				v = values[i]
			}
			w := bytes.NewBufferString("kept:")
			putValue(w, cells(values...), i, esc)
			if want := "kept:" + esc(mvc.FormatParam(v)); w.String() != want {
				t.Errorf("%s escaper, %#v: wrote %q, want %q", name, v, w.String(), want)
			}
		}
	}
}

// TestConcurrentRendersShareBeans: the bean cache hands one *UnitBean to
// many requests at once, so tags may only read it, and all of them share
// the engine's programs while redeployments replace them. Run under -race.
func TestConcurrentRendersShareBeans(t *testing.T) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	want, err := e.RenderPage(pd, state, ctx)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got, err := e.RenderPage(pd, state, ctx); err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent render diverged (err %v)", err)
					return
				}
				if i%10 == 0 { // programs recompile under the other renders
					redeployed := *pd
					if _, err := e.RenderPage(&redeployed, state, ctx); err != nil {
						t.Errorf("redeployed render: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// cells unboxes one literal row for a test bean.
func cells(row ...mvc.Value) []cell.Cell {
	out := make([]cell.Cell, len(row))
	for i, v := range row {
		var err error
		if out[i], err = cell.Of(v); err != nil {
			panic(err)
		}
	}
	return out
}
