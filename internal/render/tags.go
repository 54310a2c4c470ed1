package render

import (
	"bytes"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"webmlgo/internal/cell"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/dom"
	"webmlgo/internal/mvc"
)

func put(w *bytes.Buffer, ss ...string) {
	for _, s := range ss {
		w.WriteString(s)
	}
}

// plain holds the bytes no escaper the tags use (text, attribute, URL query) changes.
const plain = "0123456789-.abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// putValue appends the parameter form of values[i] (NULL where the row
// has no such position), escaped by esc; an integer, and any other
// non-text cell that spells plain, is formatted in place, with no string.
func putValue(w *bytes.Buffer, values []cell.Cell, i int, esc func(string) string) {
	var c cell.Cell
	if i >= 0 && i < len(values) {
		c = values[i]
	}
	putCell(w, c, esc)
}

// putParam appends a request parameter's query form: its parameter form
// (mvc.FormatParam), query-escaped.
func putParam(w *bytes.Buffer, v mvc.Value) {
	if c, err := cell.Of(v); err == nil {
		putCell(w, c, url.QueryEscape)
	} else {
		w.WriteString(url.QueryEscape(mvc.FormatParam(v)))
	}
}

// putCell appends c's parameter form, escaped by esc.
func putCell(w *bytes.Buffer, c cell.Cell, esc func(string) string) {
	switch c.Kind {
	case cell.KString:
		w.WriteString(esc(c.Str))
	case cell.KInt:
		w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(c.Num), 10))
	default:
		if text := c.Append(w.AvailableBuffer()); len(bytes.TrimLeft(text, plain)) == 0 {
			w.Write(text)
		} else {
			w.WriteString(esc(string(text)))
		}
	}
}

// openUnit appends the unit's wrapper and reports whether content
// follows; if none does it appends the empty notice and the closing tag.
func openUnit(w *bytes.Buffer, kind string, bean *mvc.UnitBean, empty string) bool {
	put(w, `<div class="webml-unit webml-`, kind, `" data-unit="`, dom.EscapeAttr(bean.UnitID), `">`)
	if bean.Missing || (len(bean.Nodes) == 0 && kind != "scroller") {
		put(w, `<span class="webml-empty">`, empty, `</span></div>`)
		return false
	}
	return true
}

// rowLink renders the rows of one field list as their label — a fixed
// text, else the row's leading display value — inside an anchor when
// the unit links anywhere. Names resolve to positions here, once per
// unit and level; write only indexes.
type rowLink struct {
	open    string   // `<a href="`, or "" when there is no anchor
	action  string   // "/<action>"
	targets []string // bound parameter targets, sorted as ActionURL sorts
	index   []int    // position of each target's source value
	label   string
	lead    int
}

// newRowLink binds a (nil for none) to fields. The anchor's own label
// wins over label. A parameter whose source is not a field is dropped; of
// two with one target the later declared wins, as in ActionURL's map.
func newRowLink(a *descriptor.Anchor, open string, fields []string, label string) rowLink {
	l := rowLink{label: label, lead: mvc.FieldIndex(fields, "oid")}
	for i, f := range fields {
		if f != "oid" {
			l.lead = i
			break
		}
	}
	if a == nil {
		return l
	}
	l.open, l.action = open, "/"+a.Action
	if a.Label != "" {
		l.label = a.Label
	}
	for _, p := range a.Params {
		if i := mvc.FieldIndex(fields, p.Source); i < 0 {
			continue
		} else if at, dup := slices.BinarySearch(l.targets, p.Target); dup {
			l.index[at] = i
		} else {
			l.targets, l.index = slices.Insert(l.targets, at, p.Target), slices.Insert(l.index, at, i)
		}
	}
	return l
}

// first returns the first anchor originating at a unit, or nil.
func (rc *Context) first(unitID string) *descriptor.Anchor {
	for i := range rc.Page.Anchors {
		if rc.Page.Anchors[i].FromUnit == unitID {
			return &rc.Page.Anchors[i]
		}
	}
	return nil
}

// appendHref appends the anchor's URL for one row: byte for byte
// dom.EscapeAttr(mvc.ActionURL(action, params)), without building either.
func (l *rowLink) appendHref(w *bytes.Buffer, values []cell.Cell) {
	w.WriteString(dom.EscapeAttr(l.action))
	sep := "?"
	for k, target := range l.targets {
		put(w, sep, url.QueryEscape(target), "=")
		putValue(w, values, l.index[k], url.QueryEscape)
		sep = "&amp;"
	}
}

func (l *rowLink) write(w *bytes.Buffer, values []cell.Cell) {
	if l.open != "" {
		w.WriteString(l.open)
		l.appendHref(w, values)
		w.WriteString(`">`)
	}
	if l.label != "" {
		w.WriteString(dom.EscapeText(l.label))
	} else if l.lead >= 0 {
		putValue(w, values, l.lead, dom.EscapeText)
	}
	if l.open != "" {
		w.WriteString("</a>")
	}
}

// renderDataTag shows one object as a definition list (Figure 2's
// "Volume data" block).
func renderDataTag(rc *Context, w *bytes.Buffer, bean *mvc.UnitBean) {
	if !openUnit(w, "data", bean, "no content") {
		return
	}
	values := bean.Nodes[0].Values
	w.WriteString("<dl>")
	for i, f := range bean.Fields {
		if f != "oid" {
			put(w, "<dt>", dom.EscapeText(f), "</dt><dd>")
			putValue(w, values, i, dom.EscapeText)
			w.WriteString("</dd>")
		}
	}
	w.WriteString("</dl>")
	for i := range rc.Page.Anchors {
		if a := &rc.Page.Anchors[i]; a.FromUnit == bean.UnitID {
			more := newRowLink(a, `<a class="webml-link" href="`, bean.Fields, "more")
			more.write(w, values)
		}
	}
	w.WriteString("</div>")
}

// renderIndexTag shows a list of objects; hierarchical indexes nest
// sub-lists, with the unit's outgoing anchor applied at the deepest level
// (Figure 1: the link to the paper page leaves from the nested papers).
func renderIndexTag(rc *Context, w *bytes.Buffer, bean *mvc.UnitBean) {
	if !openUnit(w, "index", bean, "no entries") {
		return
	}
	// One label rule per level; only the deepest carries the anchor.
	depth := len(bean.LevelFields)
	links := make([]rowLink, depth+1)
	for level := range links[:depth] {
		links[level] = newRowLink(nil, "", bean.LevelNames(level), "")
	}
	links[depth] = newRowLink(rc.first(bean.UnitID), `<a href="`, bean.LevelNames(depth), "")
	renderList(w, links, bean.Nodes, 0)
	w.WriteString("</div>")
}

func renderList(w *bytes.Buffer, links []rowLink, nodes []mvc.Node, level int) {
	put(w, `<ul class="webml-level-`, strconv.Itoa(level), `">`)
	for i := range nodes {
		w.WriteString("<li>")
		links[level].write(w, nodes[i].Values)
		if len(nodes[i].Children) > 0 && level < len(links)-1 {
			renderList(w, links, nodes[i].Children, level+1)
		}
		w.WriteString("</li>")
	}
	w.WriteString("</ul>")
}

// renderMultidataTag shows objects as a table with all fields.
func renderMultidataTag(rc *Context, w *bytes.Buffer, bean *mvc.UnitBean) {
	if !openUnit(w, "multidata", bean, "no content") {
		return
	}
	w.WriteString(`<table><tr>`)
	for _, f := range bean.Fields {
		if f != "oid" {
			put(w, "<th>", dom.EscapeText(f), "</th>")
		}
	}
	view := newRowLink(rc.first(bean.UnitID), `<a href="`, bean.Fields, "view")
	if view.open != "" {
		w.WriteString("<th></th>")
	}
	w.WriteString("</tr>")
	for _, n := range bean.Nodes {
		w.WriteString("<tr>")
		for i, f := range bean.Fields {
			if f != "oid" {
				w.WriteString("<td>")
				putValue(w, n.Values, i, dom.EscapeText)
				w.WriteString("</td>")
			}
		}
		if view.open != "" {
			w.WriteString("<td>")
			view.write(w, n.Values)
			w.WriteString("</td>")
		}
		w.WriteString("</tr>")
	}
	w.WriteString("</table></div>")
}

// renderMultichoiceTag shows objects with checkboxes submitting to the
// unit's first anchor (typically a connect/disconnect operation).
func renderMultichoiceTag(rc *Context, w *bytes.Buffer, bean *mvc.UnitBean) {
	if !openUnit(w, "multichoice", bean, "no entries") {
		return
	}
	checkName, action := "oid", ""
	if a := rc.first(bean.UnitID); a != nil {
		action = "/" + a.Action
		if len(a.Params) > 0 {
			checkName = a.Params[0].Target
		}
	}
	put(w, `<form method="get" action="`, dom.EscapeAttr(action), `">`)
	oid, plain := mvc.FieldIndex(bean.Fields, "oid"), newRowLink(nil, "", bean.Fields, "")
	for _, n := range bean.Nodes {
		put(w, `<label><input type="checkbox" name="`, dom.EscapeAttr(checkName), `" value="`)
		putValue(w, n.Values, oid, dom.EscapeAttr)
		w.WriteString(`"> `)
		plain.write(w, n.Values)
		w.WriteString(`</label>`)
	}
	w.WriteString(`<input type="submit" value="apply"></form></div>`)
}

// renderScrollerTag shows one window of a result plus prev/next anchors
// that re-request the same page with a shifted offset.
func renderScrollerTag(rc *Context, w *bytes.Buffer, bean *mvc.UnitBean) {
	if !openUnit(w, "scroller", bean, "no query") {
		return
	}
	w.WriteString(`<div class="webml-scroller-info">`)
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(bean.Offset+1), 10))
	w.WriteString("-")
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(bean.Offset+len(bean.Nodes)), 10))
	w.WriteString(" of ")
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(bean.Total), 10))
	w.WriteString("</div><ol>")
	link := newRowLink(rc.first(bean.UnitID), `<a href="`, bean.Fields, "")
	for _, n := range bean.Nodes {
		w.WriteString("<li>")
		link.write(w, n.Values)
		w.WriteString("</li>")
	}
	w.WriteString("</ol>")
	// Window navigation: same page action, shifted offset, preserving the
	// other request parameters.
	window := func(offset int, label string) {
		if offset < 0 || (bean.Total > 0 && offset >= bean.Total) || offset == bean.Offset {
			return
		}
		w.WriteString(`<a class="webml-scroll" href="`)
		appendScrollHref(w, rc.Page.ID, rc.Request.Params, offset)
		put(w, `">`, dom.EscapeText(label), `</a>`)
	}
	window(bean.Offset-bean.PageSize, "prev")
	window(bean.Offset+bean.PageSize, "next")
	w.WriteString("</div>")
}

// appendScrollHref appends the URL of page pageID under params with
// offset replaced and the names that start with "_" dropped: byte for
// byte dom.EscapeAttr(mvc.ActionURL("page/"+pageID, ...)) of those
// parameters in their parameter form, without building either.
func appendScrollHref(w *bytes.Buffer, pageID string, params map[string]mvc.Value, offset int) {
	var names [8]string
	keys := append(names[:0], "offset")
	for k := range params {
		if k != "offset" && !strings.HasPrefix(k, "_") {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	put(w, "/page/", dom.EscapeAttr(pageID))
	sep := "?"
	for _, k := range keys {
		put(w, sep, url.QueryEscape(k), "=")
		if k == "offset" {
			w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(offset), 10))
		} else {
			putParam(w, params[k])
		}
		sep = "&amp;"
	}
}

// renderEntryTag shows the form of an entry unit. Field names are mapped
// through the unit's first anchor so the submitted parameter names match
// the target's inputs; validation errors and sticky values reappear.
func renderEntryTag(rc *Context, w *bytes.Buffer, bean *mvc.UnitBean) {
	action := ""
	rename := map[string]string{}
	if a := rc.first(bean.UnitID); a != nil {
		action = "/" + a.Action
		for _, p := range a.Params {
			rename[p.Source] = p.Target
		}
	}
	put(w, `<div class="webml-unit webml-entry" data-unit="`, dom.EscapeAttr(bean.UnitID),
		`"><form method="get" action="`, dom.EscapeAttr(action), `">`)
	for _, f := range bean.FormFields {
		name := f.Name
		if to, ok := rename[f.Name]; ok {
			name = to
		}
		put(w, `<label>`, dom.EscapeText(f.Name), ` <input type="text" name="`, dom.EscapeAttr(name),
			`" value="`, dom.EscapeAttr(f.Value), `"`)
		if f.Required {
			w.WriteString(` data-required="true"`)
		}
		w.WriteString("></label>")
		if msg, ok := bean.Errors[f.Name]; ok {
			put(w, `<span class="webml-field-error">`, dom.EscapeText(msg), `</span>`)
		}
	}
	w.WriteString(`<input type="submit" value="submit"></form></div>`)
}
