package dom

import (
	"fmt"
	"strings"
)

// voidElements are HTML elements that never have children and need no
// closing tag. The parser accepts them unclosed, as hand-written HTML
// mock-ups (Section 7 of the paper: the graphic designer's deliverables)
// commonly leave them open.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// ParseError describes a syntax error with its byte offset in the input.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("dom: parse error at offset %d: %s", e.Offset, e.Msg)
}

// Parse parses markup into a tree. If the input has a single root element
// that element is returned; otherwise a synthetic element with tag "#root"
// wraps the top-level nodes. Parsing is lenient in the ways hand-written
// template mock-ups require (void elements, unquoted attribute values,
// bare attributes) but rejects mismatched closing tags.
func Parse(input string) (*Node, error) {
	p := &parser{src: input}
	root := NewElement("#root")
	if err := p.parseInto(root, ""); err != nil {
		return nil, err
	}
	// Unwrap a single element root, ignoring whitespace-only text around it.
	var only *Node
	for _, c := range root.Children {
		if c.Type == TextNode && strings.TrimSpace(c.Data) == "" {
			continue
		}
		if only != nil {
			only = nil
			break
		}
		only = c
	}
	if only != nil && only.Type == ElementNode {
		only.Parent = nil
		return only, nil
	}
	return root, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

// parseInto parses children into parent until the matching close tag for
// closeTag (or EOF when closeTag is empty).
func (p *parser) parseInto(parent *Node, closeTag string) error {
	for p.pos < len(p.src) {
		if p.src[p.pos] != '<' {
			start := p.pos
			for p.pos < len(p.src) && p.src[p.pos] != '<' {
				p.pos++
			}
			parent.AppendChild(NewText(unescape(p.src[start:p.pos])))
			continue
		}
		// Comment.
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				return p.errf("unterminated comment")
			}
			parent.AppendChild(NewComment(p.src[p.pos+4 : p.pos+4+end]))
			p.pos += 4 + end + 3
			continue
		}
		// Doctype / processing instruction: skip to '>'.
		if strings.HasPrefix(p.src[p.pos:], "<!") || strings.HasPrefix(p.src[p.pos:], "<?") {
			end := strings.IndexByte(p.src[p.pos:], '>')
			if end < 0 {
				return p.errf("unterminated declaration")
			}
			p.pos += end + 1
			continue
		}
		// Closing tag.
		if strings.HasPrefix(p.src[p.pos:], "</") {
			p.pos += 2
			name := p.readName()
			p.skipSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != '>' {
				return p.errf("malformed closing tag </%s", name)
			}
			p.pos++
			if name != closeTag {
				return p.errf("closing tag </%s> does not match <%s>", name, closeTag)
			}
			return nil
		}
		// Opening tag.
		p.pos++ // consume '<'
		name := p.readName()
		if name == "" {
			return p.errf("expected tag name after '<'")
		}
		el := NewElement(name)
		if err := p.parseAttrs(el); err != nil {
			return err
		}
		selfClose := false
		if p.pos < len(p.src) && p.src[p.pos] == '/' {
			selfClose = true
			p.pos++
		}
		if p.pos >= len(p.src) || p.src[p.pos] != '>' {
			return p.errf("malformed tag <%s", name)
		}
		p.pos++
		parent.AppendChild(el)
		if selfClose || voidElements[strings.ToLower(name)] {
			continue
		}
		// Raw-text elements: script and style content is not markup.
		lower := strings.ToLower(name)
		if lower == "script" || lower == "style" {
			closer := "</" + lower
			idx := strings.Index(strings.ToLower(p.src[p.pos:]), closer)
			if idx < 0 {
				return p.errf("unterminated <%s>", name)
			}
			if idx > 0 {
				el.AppendChild(NewText(p.src[p.pos : p.pos+idx]))
			}
			p.pos += idx + len(closer)
			end := strings.IndexByte(p.src[p.pos:], '>')
			if end < 0 {
				return p.errf("unterminated <%s> closing tag", name)
			}
			p.pos += end + 1
			continue
		}
		if err := p.parseInto(el, name); err != nil {
			return err
		}
	}
	if closeTag != "" {
		return p.errf("missing closing tag </%s>", closeTag)
	}
	return nil
}

func (p *parser) parseAttrs(el *Node) error {
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return p.errf("unterminated tag <%s", el.Tag)
		}
		c := p.src[p.pos]
		if c == '>' || c == '/' {
			return nil
		}
		name := p.readName()
		if name == "" {
			return p.errf("expected attribute name in <%s>", el.Tag)
		}
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '=' {
			p.pos++
			p.skipSpace()
			val, err := p.readAttrValue()
			if err != nil {
				return err
			}
			el.Attrs = append(el.Attrs, Attr{Name: name, Value: val})
		} else {
			// Bare attribute (e.g. "selected").
			el.Attrs = append(el.Attrs, Attr{Name: name, Value: ""})
		}
	}
}

func (p *parser) readAttrValue() (string, error) {
	if p.pos >= len(p.src) {
		return "", p.errf("expected attribute value")
	}
	q := p.src[p.pos]
	if q == '"' || q == '\'' {
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != q {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return "", p.errf("unterminated attribute value")
		}
		v := p.src[start:p.pos]
		p.pos++
		return unescape(v), nil
	}
	// Unquoted value.
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '>' || c == '/' {
			break
		}
		p.pos++
	}
	return unescape(p.src[start:p.pos]), nil
}

func (p *parser) readName() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
			c == ':' || c == '-' || c == '_' || c == '.' {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		p.pos++
	}
}

var unescaper = strings.NewReplacer(
	"&lt;", "<",
	"&gt;", ">",
	"&quot;", `"`,
	"&#39;", "'",
	"&apos;", "'",
	"&amp;", "&",
)

func unescape(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return unescaper.Replace(s)
}
