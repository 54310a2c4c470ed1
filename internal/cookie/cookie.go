// Package cookie reads one request cookie as net/http's Request.Cookie
// does, without parsing the others: the value is a substring of the
// Cookie header line, so finding it allocates nothing.
package cookie

import (
	"net/http"
	"net/textproto"
	"strings"
)

// Value returns the value of the first cookie named name in r's Cookie
// header lines, with Request.Cookie's rules: pairs are separated by ';'
// and trimmed, a name must be a valid token, one pair of surrounding
// double quotes is stripped, and a pair whose value holds an invalid
// byte is skipped.
func Value(r *http.Request, name string) (string, bool) {
	if !validName(name) {
		return "", false
	}
	for _, line := range r.Header["Cookie"] {
		for line != "" {
			var part string
			part, line, _ = strings.Cut(line, ";")
			n, v, _ := strings.Cut(textproto.TrimString(part), "=")
			if textproto.TrimString(n) != name {
				continue
			}
			if v, ok := parseValue(v); ok {
				return v, true
			}
		}
	}
	return "", false
}

// parseValue strips one pair of surrounding double quotes and checks
// every byte of what remains.
func parseValue(raw string) (string, bool) {
	if len(raw) > 1 && raw[0] == '"' && raw[len(raw)-1] == '"' {
		raw = raw[1 : len(raw)-1]
	}
	for i := 0; i < len(raw); i++ {
		if b := raw[i]; b < 0x20 || b >= 0x7f || b == '"' || b == ';' || b == '\\' {
			return "", false
		}
	}
	return raw, true
}

// validName reports whether name is a non-empty HTTP token (RFC 7230).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		b := name[i]
		if 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' ||
			strings.IndexByte("!#$%&'*+-.^_`|~", b) >= 0 {
			continue
		}
		return false
	}
	return true
}
