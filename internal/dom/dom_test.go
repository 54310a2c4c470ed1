package dom

import (
	"strings"
	"testing"
	"testing/quick"
)

// MustParse is Parse but panics on error, for static markup in tests.
func MustParse(input string) *Node {
	n, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return n
}

func TestParseSimpleElement(t *testing.T) {
	n, err := Parse(`<div class="x">hello</div>`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Tag != "div" {
		t.Fatalf("tag = %q, want div", n.Tag)
	}
	if got := n.AttrOr("class", ""); got != "x" {
		t.Fatalf("class = %q", got)
	}
	if got := n.Text(); got != "hello" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseNested(t *testing.T) {
	n := MustParse(`<table><tr><td><webml:dataUnit id="u1"/></td></tr></table>`)
	unit := n.Find(ByTag("webml:dataUnit"))
	if unit == nil {
		t.Fatal("custom tag not found")
	}
	if id, _ := unit.Attr("id"); id != "u1" {
		t.Fatalf("id = %q", id)
	}
	if unit.Parent.Tag != "td" {
		t.Fatalf("parent = %q", unit.Parent.Tag)
	}
}

func TestParseVoidElements(t *testing.T) {
	n := MustParse(`<p>a<br>b<img src="x.png">c</p>`)
	if got := len(n.FindAll(ByTag("br"))); got != 1 {
		t.Fatalf("br count = %d", got)
	}
	if got := n.Text(); got != "abc" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseComment(t *testing.T) {
	n := MustParse(`<div><!-- layout grid --><span/></div>`)
	if n.Children[0].Type != CommentNode {
		t.Fatalf("first child type = %v", n.Children[0].Type)
	}
	if n.Children[0].Data != " layout grid " {
		t.Fatalf("comment = %q", n.Children[0].Data)
	}
}

func TestParseMultiRoot(t *testing.T) {
	n := MustParse(`<a/><b/>`)
	if n.Tag != "#root" {
		t.Fatalf("root tag = %q", n.Tag)
	}
	if len(n.Children) != 2 {
		t.Fatalf("children = %d", len(n.Children))
	}
}

func TestParseMismatchedClose(t *testing.T) {
	if _, err := Parse(`<div><span></div>`); err == nil {
		t.Fatal("expected error for mismatched closing tag")
	}
}

func TestParseMissingClose(t *testing.T) {
	if _, err := Parse(`<div><span></span>`); err == nil {
		t.Fatal("expected error for unterminated element")
	}
}

func TestParseUnquotedAndBareAttrs(t *testing.T) {
	n := MustParse(`<input type=text required>`)
	if v := n.AttrOr("type", ""); v != "text" {
		t.Fatalf("type = %q", v)
	}
	if _, ok := n.Attr("required"); !ok {
		t.Fatal("bare attribute missing")
	}
}

func TestParseDoctypeSkipped(t *testing.T) {
	n := MustParse("<!DOCTYPE html><html><body/></html>")
	if n.Tag != "html" {
		t.Fatalf("tag = %q", n.Tag)
	}
}

func TestParseScriptRawText(t *testing.T) {
	n := MustParse(`<script>if (a < b) { x(); }</script>`)
	if got := n.Children[0].Data; !strings.Contains(got, "a < b") {
		t.Fatalf("script content = %q", got)
	}
}

func TestEntitiesRoundTrip(t *testing.T) {
	n := MustParse(`<p title="a&amp;b">x &lt; y</p>`)
	if v := n.AttrOr("title", ""); v != "a&b" {
		t.Fatalf("title = %q", v)
	}
	if got := n.Text(); got != "x < y" {
		t.Fatalf("text = %q", got)
	}
	out := n.String()
	re := MustParse(out)
	if re.Text() != n.Text() || re.AttrOr("title", "") != "a&b" {
		t.Fatalf("round trip lost data: %q", out)
	}
}

// removeAttr deletes the named attribute if present.
func (n *Node) removeAttr(name string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return
		}
	}
}

func TestSetRemoveAttr(t *testing.T) {
	n := NewElement("div")
	n.SetAttr("class", "a")
	n.SetAttr("class", "b")
	if len(n.Attrs) != 1 || n.AttrOr("class", "") != "b" {
		t.Fatalf("attrs = %v", n.Attrs)
	}
	n.removeAttr("class")
	if len(n.Attrs) != 0 {
		t.Fatalf("attrs after remove = %v", n.Attrs)
	}
}

func TestReplaceWith(t *testing.T) {
	root := MustParse(`<div><a/><b/><c/></div>`)
	b := root.Find(ByTag("b"))
	b.ReplaceWith(NewElement("x"))
	if root.Children[1].Tag != "x" {
		t.Fatalf("children = %v", root.String())
	}
	if b.Parent != nil {
		t.Fatal("replaced node keeps parent")
	}
}

func TestRemoveChild(t *testing.T) {
	root := MustParse(`<div><a/><b/><c/></div>`)
	c := root.Find(ByTag("c"))
	root.RemoveChild(c)
	if len(root.Children) != 2 || root.Children[1].Tag != "b" || c.Parent != nil {
		t.Fatalf("got %s", root.String())
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := MustParse(`<div id="d"><span>hi</span></div>`)
	c := orig.Clone()
	c.Find(ByTag("span")).Children[0].Data = "bye"
	c.SetAttr("id", "c")
	if orig.Text() != "hi" || orig.AttrOr("id", "") != "d" {
		t.Fatal("clone shares state with original")
	}
	if c.Parent != nil {
		t.Fatal("clone has a parent")
	}
}

func TestFindAllByTagPrefix(t *testing.T) {
	n := MustParse(`<p><webml:dataUnit id="1"/><webml:indexUnit id="2"/><span/></p>`)
	units := n.FindAll(ByTagPrefix("webml:"))
	if len(units) != 2 {
		t.Fatalf("units = %d", len(units))
	}
}

func TestByAttr(t *testing.T) {
	n := MustParse(`<div><p id="a"/><p id="b"/></div>`)
	if got := n.Find(ByAttr("id", "b")); got == nil || got.Tag != "p" {
		t.Fatal("ByAttr lookup failed")
	}
}

func TestWalkSkipsChildrenOnFalse(t *testing.T) {
	n := MustParse(`<a><b><c/></b><d/></a>`)
	var visited []string
	n.Walk(func(m *Node) bool {
		if m.Type == ElementNode {
			visited = append(visited, m.Tag)
		}
		return m.Tag != "b"
	})
	got := strings.Join(visited, ",")
	if got != "a,b,d" {
		t.Fatalf("visited = %s", got)
	}
}

func TestSerializeVoidAndSelfClose(t *testing.T) {
	n := MustParse(`<div><br><custom/></div>`)
	out := n.String()
	if !strings.Contains(out, "<br>") || !strings.Contains(out, "<custom/>") {
		t.Fatalf("out = %q", out)
	}
}

// Property: serializing then reparsing preserves structure for trees built
// from a safe alphabet of tags and text.
func TestSerializeParseRoundTripProperty(t *testing.T) {
	f := func(seed uint32) bool {
		n := genTree(seed, 0)
		out := n.String()
		re, err := Parse(out)
		if err != nil {
			return false
		}
		return equalTree(normalize(n), normalize(re))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

var genTags = []string{"div", "span", "table", "webml:dataUnit", "td"}

func genTree(seed uint32, depth int) *Node {
	next := func() uint32 { seed = seed*1664525 + 1013904223; return seed }
	n := NewElement(genTags[next()%uint32(len(genTags))])
	if next()%2 == 0 {
		n.SetAttr("id", "n"+string(rune('a'+next()%26)))
	}
	if depth < 3 {
		for i := uint32(0); i < next()%3; i++ {
			switch next() % 3 {
			case 0:
				n.AppendChild(NewText("t" + string(rune('a'+next()%26))))
			default:
				n.AppendChild(genTree(next(), depth+1))
			}
		}
	}
	return n
}

// normalize merges adjacent text nodes so structural comparison is stable.
func normalize(n *Node) *Node {
	c := n.Clone()
	var merged []*Node
	for _, ch := range c.Children {
		ch = normalize(ch)
		if ch.Type == TextNode && len(merged) > 0 && merged[len(merged)-1].Type == TextNode {
			merged[len(merged)-1].Data += ch.Data
			continue
		}
		merged = append(merged, ch)
	}
	c.Children = merged
	return c
}

func equalTree(a, b *Node) bool {
	if a.Type != b.Type || a.Tag != b.Tag || a.Data != b.Data || len(a.Children) != len(b.Children) || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !equalTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}
