// Package render is the View of Figure 4: page templates made of static
// markup plus custom tags ("HTML + custom tags"), where each WebML unit
// kind maps to a custom tag transforming the content stored in the unit
// beans into HTML. A styler (Section 5's presentation rules) restyles a
// page's template while its program compiles.
package render

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
	"webmlgo/internal/mvc"
)

// bufPool recycles page buffers across requests.
var bufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// maxPooledBuf caps what returns to the pool: one pathological page must
// not pin a giant buffer for the rest of the process.
const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// TagRenderer appends the HTML rendition of one unit kind, built from
// its bean, to w — the custom tag implementation of Section 3
// ("WebML-aware tags, defined on purpose to match the features of WebML
// units"). w is a pooled buffer: write to it, do not retain it. The bean
// may be shared with other requests through the bean cache and must not
// be modified; a node's Values are positional (see mvc.Node).
type TagRenderer func(rc *Context, w *bytes.Buffer, bean *mvc.UnitBean)

// Styler applies the presentation rules of Section 5 as a program compiles:
// Style restyles the page's own parsed template in place. Variant names the
// device class of a user agent ("" for all unless VariesByUserAgent);
// what Style does may depend on the page and that name alone.
type Styler interface {
	Style(pd *descriptor.Page, tpl *dom.Node, userAgent string) error
	Variant(userAgent string) string
	VariesByUserAgent() bool
}

// Engine renders pages from the repository's templates.
type Engine struct {
	Repo *descriptor.Repository
	// Tags maps unit kind -> renderer; NewEngine installs the core six,
	// plug-ins add theirs.
	Tags map[string]TagRenderer
	// Styler, when set, styles each page program as it compiles.
	Styler Styler

	mu       sync.RWMutex
	programs map[programKey]*program // at most pages x variants
}

type programKey struct{ page, variant string }

// program is one page compiled for one style variant: what dom.Serialize
// emits for the styled template, landmark menu in place, cut at every
// custom tag. static[i] precedes the markup of units[i]; the last static
// closes the page.
type program struct {
	page   *descriptor.Page // a redeployed descriptor recompiles
	static []string
	units  []string
}

// slotMark stands for a unit while its template is serialized.
const slotMark = "\x00webml:slot\x00"

// NewEngine returns a renderer with the core tag library installed.
func NewEngine(repo *descriptor.Repository) *Engine {
	return &Engine{Repo: repo, programs: map[programKey]*program{}, Tags: map[string]TagRenderer{
		"data": renderDataTag, "index": renderIndexTag, "multidata": renderMultidataTag,
		"multichoice": renderMultichoiceTag, "scroller": renderScrollerTag, "entry": renderEntryTag,
	}}
}

// RegisterTag installs the renderer for a (plug-in) unit kind. Programs
// name units, not renderers: the tag is looked up when a page is served.
func (e *Engine) RegisterTag(kind string, r TagRenderer) { e.Tags[kind] = r }

// Context is passed to tag renderers.
type Context struct {
	Page    *descriptor.Page
	State   *mvc.PageState
	Request *mvc.RequestContext
}

var _ mvc.Renderer = (*Engine)(nil)

// RenderPage renders a page inline: the page's program for the requesting
// device runs, each custom tag writing its unit straight into the page.
func (e *Engine) RenderPage(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext) ([]byte, error) {
	return e.run(pd, state, ctx, false)
}

// RenderContainer renders a page in the edge mode of Section 6's ESI
// architecture: the template renders with every unit slot replaced by
// an <esi:include> placeholder pointing at the unit's fragment
// endpoint. No unit is computed — the surrogate fetches and
// caches each fragment independently, under its own descriptor policy.
func (e *Engine) RenderContainer(pd *descriptor.Page, ctx *mvc.RequestContext) ([]byte, error) {
	return e.run(pd, nil, ctx, true)
}

// RenderUnitFragment renders one unit's markup, byte-identical to what
// RenderPage inlines in its place (including the placeholder comment for
// units the page did not compute), so an edge-assembled page equals the
// in-process rendering exactly.
func (e *Engine) RenderUnitFragment(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, unitID string) ([]byte, error) {
	b := getBuf()
	defer putBuf(b)
	if err := e.writeUnit(&Context{Page: pd, State: state, Request: ctx}, b, unitID); err != nil {
		return nil, err
	}
	return bytes.Clone(b.Bytes()), nil
}

// VariesByUserAgent reports whether rendering dispatches on the request
// User-Agent (a rule set with device profiles), so the Controller and
// any cache tier key and Vary on it.
func (e *Engine) VariesByUserAgent() bool { return e.Styler != nil && e.Styler.VariesByUserAgent() }

// variant names the presentation the request is served in.
func (e *Engine) variant(ctx *mvc.RequestContext) string {
	if e.Styler == nil {
		return ""
	}
	return e.Styler.Variant(ctx.UserAgent)
}

// run executes the page's program: edge mode emits ESI placeholders
// where the inline mode writes computed unit markup.
func (e *Engine) run(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, edge bool) ([]byte, error) {
	prog, err := e.program(pd, e.variant(ctx), ctx.UserAgent)
	if err != nil {
		return nil, err
	}
	b := getBuf()
	defer putBuf(b)
	if ctx.Error != "" {
		put(b, `<div class="webml-error">`, dom.EscapeText(ctx.Error), `</div>`)
	}
	rc := &Context{Page: pd, State: state, Request: ctx}
	for i, unitID := range prog.units {
		b.WriteString(prog.static[i])
		if edge {
			// The placeholder stands exactly where the inline markup would: the
			// surrogate's textual substitution reproduces RenderPage byte for byte.
			put(b, `<esi:include src="`, dom.EscapeAttr(mvc.FragmentURL(e.Repo, pd.ID, unitID, ctx.Params)), `"/>`)
		} else if err := e.writeUnit(rc, b, unitID); err != nil {
			return nil, err
		}
	}
	b.WriteString(prog.static[len(prog.units)])
	return bytes.Clone(b.Bytes()), nil
}

// writeUnit appends one unit's markup to w. Rendered fragments are
// cached at the edge tier (internal/edge), never here.
func (e *Engine) writeUnit(rc *Context, w *bytes.Buffer, unitID string) error {
	bean := rc.State.Beans[unitID]
	if bean == nil {
		put(w, "<!-- unit ", unitID, " not computed -->")
		return nil
	}
	tag, ok := e.Tags[bean.Kind]
	if !ok {
		return fmt.Errorf("render: no tag renderer for unit kind %q", bean.Kind)
	}
	tag(rc, w, bean)
	return nil
}

// program returns the page's program for a variant, compiled on first use.
// One per variant is sound by the Styler contract: what Style does depends
// on the page, its template and Variant(userAgent) alone.
func (e *Engine) program(pd *descriptor.Page, variant, userAgent string) (*program, error) {
	key := programKey{pd.ID, variant}
	e.mu.RLock()
	prog := e.programs[key]
	e.mu.RUnlock()
	if prog != nil && prog.page == pd {
		return prog, nil
	}
	prog, err := e.compile(pd, userAgent)
	if err == nil {
		e.mu.Lock()
		e.programs[key] = prog
		e.mu.Unlock()
	}
	return prog, err
}

// compile parses the template into its own tree, styles it in place, marks
// every custom tag, puts the landmark menu at the top of the body and cuts
// the serializer's output at the marks: statics cannot drift from it.
func (e *Engine) compile(pd *descriptor.Page, userAgent string) (*program, error) {
	src, ok := e.Repo.Template(pd.Template)
	if !ok {
		return nil, fmt.Errorf("render: no template %q", pd.Template)
	}
	tpl, err := dom.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("render: template %q: %w", pd.Template, err)
	}
	if e.Styler != nil {
		if err := e.Styler.Style(pd, tpl, userAgent); err != nil {
			return nil, fmt.Errorf("render: template %q: %w", pd.Template, err)
		}
	}
	prog := &program{page: pd}
	tpl.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || !strings.HasPrefix(n.Tag, "webml:") {
			return true
		}
		prog.units = append(prog.units, n.AttrOr("id", ""))
		*n = dom.Node{Type: dom.RawNode, Data: slotMark, Parent: n.Parent}
		return false
	})
	if body := tpl.Find(dom.ByTag("body")); body != nil && len(pd.Menu) > 0 {
		var nav strings.Builder
		nav.WriteString(`<nav class="webml-menu">`)
		for _, item := range pd.Menu {
			fmt.Fprintf(&nav, `<a href="/%s">%s</a> `, dom.EscapeAttr(item.Action), dom.EscapeText(item.Label))
		}
		nav.WriteString(`</nav>`)
		body.Children = append([]*dom.Node{dom.NewRaw(nav.String())}, body.Children...)
	}
	if prog.static = strings.Split(tpl.String(), slotMark); len(prog.static) != len(prog.units)+1 {
		return nil, fmt.Errorf("render: template %q spells the reserved slot mark", pd.Template)
	}
	return prog, nil
}
