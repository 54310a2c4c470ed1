// Package render is the View of Figure 4: page templates made of static
// markup plus custom tags ("HTML + custom tags"), where each WebML unit
// kind maps to a custom tag transforming the content stored in the unit
// beans into HTML. Rendering optionally consults the template-fragment
// cache and a runtime styler (Section 5's on-the-fly presentation rules).
package render

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
	"webmlgo/internal/mvc"
)

// bufPool recycles render buffers across requests: the final page
// serialization (and the menu/fragment-key scratch) writes into a pooled
// bytes.Buffer instead of growing a fresh one per page.
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

// Styler transforms a parsed template at request time (runtime
// application of the presentation rules, Section 5). Variant names the
// rule set chosen for a user agent, for fragment-cache keying.
type Styler interface {
	Apply(tpl *dom.Node, userAgent string) (*dom.Node, error)
	Variant(userAgent string) string
}

// Engine renders pages from the repository's templates.
type Engine struct {
	Repo *descriptor.Repository
	// Tags maps unit kind -> renderer; NewEngine installs the core six,
	// plug-ins add theirs.
	Tags map[string]TagRenderer
	// Fragments, when set, caches rendered unit fragments (ESI-style).
	Fragments *cache.FragmentCache
	// Styler, when set, applies presentation rules per request.
	Styler Styler

	mu     sync.RWMutex
	parsed map[string]*dom.Node // template name -> parsed tree
}

// NewEngine returns a renderer with the core tag library installed.
func NewEngine(repo *descriptor.Repository) *Engine {
	e := &Engine{
		Repo:   repo,
		Tags:   map[string]TagRenderer{},
		parsed: map[string]*dom.Node{},
	}
	e.Tags["data"] = renderDataTag
	e.Tags["index"] = renderIndexTag
	e.Tags["multidata"] = renderMultidataTag
	e.Tags["multichoice"] = renderMultichoiceTag
	e.Tags["scroller"] = renderScrollerTag
	e.Tags["entry"] = renderEntryTag
	return e
}

// RegisterTag installs the renderer for a (plug-in) unit kind.
func (e *Engine) RegisterTag(kind string, r TagRenderer) { e.Tags[kind] = r }

// InvalidateTemplate drops a cached parse (after template redeployment).
func (e *Engine) InvalidateTemplate(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.parsed, name)
}

// Context is passed to tag renderers.
type Context struct {
	Page    *descriptor.Page
	State   *mvc.PageState
	Request *mvc.RequestContext
}

var (
	_ mvc.Renderer          = (*Engine)(nil)
	_ mvc.ContainerRenderer = (*Engine)(nil)
	_ mvc.FragmentRenderer  = (*Engine)(nil)
)

// RenderPage implements mvc.Renderer: parse (or reuse) the page template,
// optionally restyle it for the requesting device, then substitute every
// custom tag with its unit's rendition, consulting the fragment cache.
func (e *Engine) RenderPage(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext) ([]byte, error) {
	return e.render(pd, state, ctx, false)
}

// RenderContainer implements mvc.ContainerRenderer (the edge mode of
// Section 6's ESI architecture): the template renders with every unit
// slot replaced by an <esi:include> placeholder pointing at the unit's
// fragment endpoint. No unit is computed — the surrogate fetches and
// caches each fragment independently, under its own descriptor policy.
func (e *Engine) RenderContainer(pd *descriptor.Page, ctx *mvc.RequestContext) ([]byte, error) {
	return e.render(pd, nil, ctx, true)
}

// RenderUnitFragment implements mvc.FragmentRenderer: one unit's markup,
// byte-identical to what RenderPage inlines in its place (including the
// placeholder comment for units the page did not compute), so an
// edge-assembled page equals the in-process rendering exactly.
func (e *Engine) RenderUnitFragment(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, unitID string) ([]byte, error) {
	bean := state.Beans[unitID]
	if bean == nil {
		return []byte("<!-- unit " + unitID + " not computed -->"), nil
	}
	variant := ""
	if e.Styler != nil {
		variant = e.Styler.Variant(ctx.UserAgent)
	}
	rc := &Context{Page: pd, State: state, Request: ctx}
	markup, err := e.renderUnit(rc, pd, bean, variant)
	if err != nil {
		return nil, err
	}
	return []byte(markup), nil
}

// VariesByUserAgent reports whether rendering dispatches on the request
// User-Agent (runtime presentation rules), so the Controller and any
// cache tier key and Vary on it.
func (e *Engine) VariesByUserAgent() bool { return e.Styler != nil }

// render is the shared template walk: edge mode emits ESI placeholders
// where the inline mode substitutes computed unit markup.
func (e *Engine) render(pd *descriptor.Page, state *mvc.PageState, ctx *mvc.RequestContext, edge bool) ([]byte, error) {
	tpl, err := e.template(pd.Template)
	if err != nil {
		return nil, err
	}
	variant := ""
	if e.Styler != nil {
		variant = e.Styler.Variant(ctx.UserAgent)
		styled, err := e.Styler.Apply(tpl, ctx.UserAgent)
		if err != nil {
			return nil, err
		}
		tpl = styled
	} else {
		tpl = tpl.Clone()
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
			// The placeholder stands exactly where the inline markup
			// would; the surrogate substitutes the fragment body
			// textually, so assembly reproduces RenderPage byte for byte.
			src := mvc.FragmentURL(pd.ID, unitID, ctx.Params)
			n.ReplaceWith(dom.NewRaw(`<esi:include src="` + dom.EscapeAttr(src) + `"/>`))
			return false
		}
		bean := state.Beans[unitID]
		if bean == nil {
			n.ReplaceWith(dom.NewComment(" unit " + unitID + " not computed "))
			return false
		}
		markup, err := e.renderUnit(rc, pd, bean, variant)
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
	// Landmark navigation menu, injected at the top of the body.
	if len(pd.Menu) > 0 {
		if body := tpl.Find(dom.ByTag("body")); body != nil {
			nb := getBuf()
			nb.WriteString(`<nav class="webml-menu">`)
			for _, item := range pd.Menu {
				fmt.Fprintf(nb, `<a href="/%s">%s</a> `,
					dom.EscapeAttr(item.Action), dom.EscapeText(item.Label))
			}
			nb.WriteString(`</nav>`)
			menu := dom.NewRaw(nb.String())
			putBuf(nb)
			if len(body.Children) > 0 {
				body.InsertBefore(menu, body.Children[0])
			} else {
				body.AppendChild(menu)
			}
		}
	}

	b := getBuf()
	defer putBuf(b)
	if ctx.Error != "" {
		fmt.Fprintf(b, `<div class="webml-error">%s</div>`, dom.EscapeText(ctx.Error))
	}
	dom.Serialize(b, tpl)
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	return out, nil
}

// renderUnit produces one unit's markup, reusing a cached fragment when
// the bean content (and style variant) is unchanged. As Section 6
// explains, this spares "only the computation of markup from query
// results, not the execution of the data extraction queries" — the bean
// cache (mvc.CachedBusiness) covers those.
func (e *Engine) renderUnit(rc *Context, pd *descriptor.Page, bean *mvc.UnitBean, variant string) (string, error) {
	var key string
	if e.Fragments != nil {
		kb := getBuf()
		kb.WriteString(pd.ID)
		kb.WriteByte('|')
		kb.WriteString(bean.UnitID)
		kb.WriteByte('|')
		kb.WriteString(variant)
		kb.WriteByte('|')
		kb.Write(strconv.AppendUint(kb.AvailableBuffer(), bean.Hash(), 16))
		key = kb.String()
		putBuf(kb)
		if cached, ok := e.Fragments.Get(key); ok {
			return string(cached), nil
		}
	}
	tag, ok := e.Tags[bean.Kind]
	if !ok {
		return "", fmt.Errorf("render: no tag renderer for unit kind %q", bean.Kind)
	}
	b := getBuf()
	tag(rc, b, bean)
	markup := b.String()
	putBuf(b)
	if e.Fragments != nil {
		// Per-fragment policy (the ESI capability of Section 6): a unit's
		// conceptual cache TTL also bounds its rendered fragment.
		if d := e.Repo.Unit(bean.UnitID); d != nil && d.Cache != nil && d.Cache.TTLSeconds > 0 {
			e.Fragments.PutTTL(key, []byte(markup), time.Duration(d.Cache.TTLSeconds)*time.Second)
		} else {
			e.Fragments.Put(key, []byte(markup))
		}
	}
	return markup, nil
}

// template returns the parsed tree of a template, parsing once.
func (e *Engine) template(name string) (*dom.Node, error) {
	e.mu.RLock()
	tpl, ok := e.parsed[name]
	e.mu.RUnlock()
	if ok {
		return tpl, nil
	}
	src, ok := e.Repo.Template(name)
	if !ok {
		return nil, fmt.Errorf("render: no template %q", name)
	}
	tpl, err := dom.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("render: template %q: %w", name, err)
	}
	e.mu.Lock()
	e.parsed[name] = tpl
	e.mu.Unlock()
	return tpl, nil
}
