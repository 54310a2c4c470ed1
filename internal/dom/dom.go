// Package dom implements a minimal XML/HTML document tree used by the
// template-skeleton generator and the presentation rule engine.
//
// The paper's page template skeletons are XML documents mixing plain HTML
// markup with custom tags in the webml: namespace (Figure 7). The style
// rules (Section 5) are tree transformations over those skeletons. This
// package provides just enough of a DOM for both: a lenient parser, a
// serializer, and structural matching/manipulation helpers.
package dom

import (
	"fmt"
	"strings"
)

// NodeType discriminates the kinds of tree nodes.
type NodeType int

const (
	// ElementNode is a tag with attributes and children.
	ElementNode NodeType = iota
	// TextNode is raw character data.
	TextNode
	// CommentNode is a <!-- --> comment.
	CommentNode
	// RawNode is pre-rendered markup serialized without escaping. The
	// parser never produces it; renderers inject it.
	RawNode
)

// Attr is a single name="value" attribute. Attribute order is preserved.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of the document tree. The zero value is not useful;
// construct nodes with NewElement, NewText, or the parser.
type Node struct {
	Type     NodeType
	Tag      string // element tag name, possibly namespaced ("webml:dataUnit")
	Attrs    []Attr
	Children []*Node
	Data     string // text or comment content
	Parent   *Node
}

// NewElement returns an element node with the given tag and no children.
func NewElement(tag string, attrs ...Attr) *Node {
	return &Node{Type: ElementNode, Tag: tag, Attrs: attrs}
}

// NewText returns a text node.
func NewText(data string) *Node {
	return &Node{Type: TextNode, Data: data}
}

// NewComment returns a comment node.
func NewComment(data string) *Node {
	return &Node{Type: CommentNode, Data: data}
}

// NewRaw returns a raw-markup node serialized verbatim.
func NewRaw(markup string) *Node {
	return &Node{Type: RawNode, Data: markup}
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute's value, or def if absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets the named attribute, replacing an existing value.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// AppendChild adds c as the last child of n and sets its parent.
func (n *Node) AppendChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return n
}

// RemoveChild removes c from n's children. It is a no-op if c is not a child.
func (n *Node) RemoveChild(c *Node) {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.Parent = nil
			return
		}
	}
}

// ReplaceWith substitutes n with repl in n's parent. It is a no-op for roots.
func (n *Node) ReplaceWith(repl *Node) {
	p := n.Parent
	if p == nil {
		return
	}
	for i, ch := range p.Children {
		if ch == n {
			repl.Parent = p
			p.Children[i] = repl
			n.Parent = nil
			return
		}
	}
}

// Clone returns a deep copy of the subtree rooted at n. The clone's parent
// is nil.
func (n *Node) Clone() *Node {
	c := &Node{Type: n.Type, Tag: n.Tag, Data: n.Data}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	for _, ch := range n.Children {
		c.AppendChild(ch.Clone())
	}
	return c
}

// Text returns the concatenated text content of the subtree.
func (n *Node) Text() string {
	var b strings.Builder
	n.collectText(&b)
	return b.String()
}

func (n *Node) collectText(b *strings.Builder) {
	if n.Type == TextNode {
		b.WriteString(n.Data)
		return
	}
	for _, c := range n.Children {
		c.collectText(b)
	}
}

// Walk visits the subtree in document order, calling fn for each node.
// If fn returns false the node's children are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) || len(n.Children) == 0 {
		return
	}
	// Children may be mutated by fn on descendants; iterate over a snapshot.
	snapshot := make([]*Node, len(n.Children))
	copy(snapshot, n.Children)
	for _, c := range snapshot {
		c.Walk(fn)
	}
}

// Find returns the first element in the subtree (including n itself) for
// which pred returns true, or nil.
func (n *Node) Find(pred func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if pred(m) {
			found = m
			return false
		}
		return true
	})
	return found
}

// FindAll returns every node in the subtree for which pred returns true.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if pred(m) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// ByTag returns a predicate matching elements with the given tag name.
func ByTag(tag string) func(*Node) bool {
	return func(n *Node) bool { return n.Type == ElementNode && n.Tag == tag }
}

// ByTagPrefix returns a predicate matching elements whose tag starts with
// the given prefix (e.g. "webml:" for all custom unit tags).
func ByTagPrefix(prefix string) func(*Node) bool {
	return func(n *Node) bool {
		return n.Type == ElementNode && strings.HasPrefix(n.Tag, prefix)
	}
}

// ByAttr returns a predicate matching elements carrying attribute name=value.
func ByAttr(name, value string) func(*Node) bool {
	return func(n *Node) bool {
		if n.Type != ElementNode {
			return false
		}
		v, ok := n.Attr(name)
		return ok && v == value
	}
}

// String renders the subtree as markup. It implements fmt.Stringer.
func (n *Node) String() string {
	var b strings.Builder
	Serialize(&b, n)
	return b.String()
}

var _ fmt.Stringer = (*Node)(nil)
