// Package edge is the ESI surrogate of Section 6: the "last generation"
// Web cache placed in front of the web tier, which assembles pages from
// independently cached fragments ("marking fragments of the page
// template, which can be cached individually and with different
// policies") and receives model-driven invalidation events from the
// operation services. It is the outer half of the paper's two-level
// caching architecture, realized as a separate HTTP tier rather than an
// in-process cache.
//
// The edge only stores and matches tags. A fragment's tags come from the
// origin's X-Webml-Deps header: at entity grain entity:<e> and rel:<r>,
// at object grain rel:<r>, the membership tag entity:<e>+ and one
// entity:<e>#<oid> per row the fragment shows. A write event names the
// tags it changed, and the purge drops the fragments that share one.
package edge

import (
	"bytes"
	"strings"
)

// Segment is one piece of an ESI-annotated body: either literal bytes to
// copy through, or an include resolved against the origin at assembly
// time (Src is the decoded src attribute; Literal is nil then).
type Segment struct {
	Literal []byte
	Src     string
}

// ESI markers recognized by the parser — the subset of the ESI 1.0
// language the surrogate implements.
const (
	esiInclude    = "<esi:include"
	esiIncludeEnd = "</esi:include>"
	esiRemove     = "<esi:remove"
	esiRemoveEnd  = "</esi:remove>"
	esiComment    = "<esi:comment"
	esiEscOpen    = "<!--esi"
	esiEscClose   = "-->"
)

// ParseESI splits a body into literal and include segments.
//
//   - <esi:include src="..."/> (or the expanded ...></esi:include> form)
//     becomes an include segment;
//   - <esi:remove> ... </esi:remove> and <esi:comment .../> are dropped;
//   - <!--esi ... --> is unwrapped and its content parsed recursively
//     (the escaping mechanism: non-ESI processors see an HTML comment);
//   - anything malformed — an include without a src, an unterminated
//     tag, an unknown esi: element — passes through verbatim.
//
// The parser never fails: worst case the whole body is one literal.
func ParseESI(body []byte) []Segment {
	var segs []Segment
	lit := 0 // start of the pending literal run
	i := 0
	for i < len(body) {
		k := bytes.IndexByte(body[i:], '<')
		if k < 0 {
			break
		}
		p := i + k
		rest := body[p:]
		switch {
		case bytes.HasPrefix(rest, []byte(esiEscOpen)):
			end := bytes.Index(rest[len(esiEscOpen):], []byte(esiEscClose))
			if end < 0 {
				i = p + 1
				continue
			}
			segs = appendLiteral(segs, body[lit:p])
			inner := rest[len(esiEscOpen) : len(esiEscOpen)+end]
			segs = append(segs, ParseESI(inner)...)
			i = p + len(esiEscOpen) + end + len(esiEscClose)
			lit = i
		case tagAt(rest, esiInclude):
			tagEnd := bytes.IndexByte(rest, '>')
			if tagEnd < 0 {
				i = p + 1
				continue
			}
			src, ok := attrValue(rest[:tagEnd+1], "src")
			if !ok || src == "" {
				i = p + 1
				continue
			}
			segs = appendLiteral(segs, body[lit:p])
			segs = append(segs, Segment{Src: unescapeAttr(src)})
			i = p + tagEnd + 1
			// Tolerate the expanded form by swallowing the closing tag.
			if bytes.HasPrefix(body[i:], []byte(esiIncludeEnd)) {
				i += len(esiIncludeEnd)
			}
			lit = i
		case tagAt(rest, esiRemove):
			end := bytes.Index(rest, []byte(esiRemoveEnd))
			if end < 0 {
				i = p + 1
				continue
			}
			segs = appendLiteral(segs, body[lit:p])
			i = p + end + len(esiRemoveEnd)
			lit = i
		case tagAt(rest, esiComment):
			tagEnd := bytes.IndexByte(rest, '>')
			if tagEnd < 0 {
				i = p + 1
				continue
			}
			segs = appendLiteral(segs, body[lit:p])
			i = p + tagEnd + 1
			lit = i
		default:
			i = p + 1
		}
	}
	segs = appendLiteral(segs, body[lit:])
	return segs
}

func appendLiteral(segs []Segment, lit []byte) []Segment {
	if len(lit) == 0 {
		return segs
	}
	return append(segs, Segment{Literal: lit})
}

// tagAt reports whether rest starts with the named tag as a whole token
// (so <esi:includefoo> is not mistaken for <esi:include ...>).
func tagAt(rest []byte, name string) bool {
	if !bytes.HasPrefix(rest, []byte(name)) {
		return false
	}
	if len(rest) == len(name) {
		return false // unterminated either way
	}
	switch rest[len(name)] {
	case ' ', '\t', '\r', '\n', '/', '>':
		return true
	}
	return false
}

// attrValue extracts a quoted attribute value from a raw tag slice.
func attrValue(tag []byte, name string) (string, bool) {
	for idx := 0; ; {
		j := bytes.Index(tag[idx:], []byte(name))
		if j < 0 {
			return "", false
		}
		at := idx + j
		idx = at + len(name)
		if at == 0 || !isSpace(tag[at-1]) {
			continue
		}
		k := idx
		for k < len(tag) && isSpace(tag[k]) {
			k++
		}
		if k >= len(tag) || tag[k] != '=' {
			continue
		}
		k++
		for k < len(tag) && isSpace(tag[k]) {
			k++
		}
		if k >= len(tag) || (tag[k] != '"' && tag[k] != '\'') {
			continue
		}
		quote := tag[k]
		k++
		end := bytes.IndexByte(tag[k:], quote)
		if end < 0 {
			return "", false
		}
		return string(tag[k : k+end]), true
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

// unescapeAttr reverses the origin's attribute escaping (dom.EscapeAttr
// plus the standard named entities) on an include src.
var attrUnescaper = strings.NewReplacer(
	"&lt;", "<", "&gt;", ">", "&quot;", `"`, "&#39;", "'", "&amp;", "&",
)

func unescapeAttr(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return attrUnescaper.Replace(s)
}
