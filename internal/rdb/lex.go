package rdb

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokParam  // ?
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string // keywords upper-cased; idents as written
	pos  int
}

// keywords are the reserved words. DISTINCT, DROP, GROUP, HAVING, INNER
// and LEFT start no form of the grammar; they stay reserved so that a
// statement written with them is refused at the word instead of reading
// it as an alias.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "NOT": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "CREATE": true, "TABLE": true, "INDEX": true,
	"DROP": true, "PRIMARY": true, "KEY": true, "AUTOINCREMENT": true,
	"NULL": true, "ORDER": true, "BY": true, "ASC": true, "DESC": true,
	"LIMIT": true, "OFFSET": true, "JOIN": true, "INNER": true, "LEFT": true,
	"ON": true, "AS": true, "DISTINCT": true, "GROUP": true, "HAVING": true,
	"LIKE": true, "FOREIGN": true, "REFERENCES": true, "UNIQUE": true,
	"TRUE": true, "FALSE": true, "ORDERED": true, "COUNT": true, "IF": true,
	"EXISTS": true, "DEFAULT": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// SQL line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isIdentStart(c):
			l.lexIdent()
		case c >= '0' && c <= '9':
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '?':
			l.emit(tokParam, "?")
			l.pos++
		case c == '<' || c == '>' || c == '!' || c == '=':
			l.lexOperator()
		case strings.IndexByte("(),.*+-/;", c) >= 0:
			l.emit(tokSymbol, string(c))
			l.pos++
		default:
			return nil, fmt.Errorf("rdb: unexpected character %q at %d", c, l.pos)
		}
	}
	l.emit(tokEOF, "")
	return l.toks, nil
}

func (l *lexer) emit(k tokKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: l.pos})
}

func isIdentStart(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: upper, pos: start})
		return
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: word, pos: start})
}

func (l *lexer) lexNumber() error {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	// A number ends at a non-identifier character: "1AND" is a typo, not
	// two tokens.
	if l.pos < len(l.src) && isIdentStart(l.src[l.pos]) {
		return fmt.Errorf("rdb: identifier character %q directly after number %q at %d", l.src[l.pos], l.src[start:l.pos], l.pos)
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("rdb: unterminated string literal at %d", start)
}

func (l *lexer) lexOperator() {
	start := l.pos
	c := l.src[l.pos]
	l.pos++
	if l.pos < len(l.src) {
		two := string(c) + string(l.src[l.pos])
		switch two {
		case "<=", ">=", "<>", "!=":
			l.pos++
			l.toks = append(l.toks, token{kind: tokSymbol, text: two, pos: start})
			return
		}
	}
	l.toks = append(l.toks, token{kind: tokSymbol, text: string(c), pos: start})
}
