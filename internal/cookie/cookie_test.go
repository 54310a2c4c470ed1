package cookie

import (
	"net/http"
	"strings"
	"testing"
)

// seedHeaders are Cookie header lines, joined by "\n" into one header
// each: malformed, quoted, repeated and multi-line cookies.
var seedHeaders = []string{
	"",
	"WSESSION=abc",
	"WSESSION=",
	"a=1; WSESSION=abc; b=2",
	" WSESSION = abc ",
	"WSESSION=\"abc\"",
	"WSESSION=\"abc",
	"WSESSION=\"",
	"WSESSION=\"\"",
	"WSESSION=a\"b; WSESSION=ok",
	"WSESSION=a\\b",
	"WSESSION=a b",
	"WSESSION=caf\xc3\xa9; WSESSION=second",
	"WSESSION=one; WSESSION=two",
	"a=1\nWSESSION=line2",
	"WSESSION=bad\\\nWSESSION=line2",
	";;; ;WSESSION=x;;",
	"WSESSION",
	"wsession=lower",
	"WSESSION=x=y",
	"\tWSESSION=\ttab\t",
	"WSESSION=\x7f",
	"WSESSION=a\x00b",
	"W SESSION=x; WSESSION=y",
}

func header(lines string) *http.Request {
	r, _ := http.NewRequest(http.MethodGet, "/", nil)
	if lines != "" {
		r.Header["Cookie"] = strings.Split(lines, "\n")
	}
	return r
}

// check compares Value with Request.Cookie for one header and name.
func check(t *testing.T, lines, name string) {
	r := header(lines)
	got, ok := Value(r, name)
	c, err := r.Cookie(name)
	if ok != (err == nil) || ok && got != c.Value {
		t.Fatalf("Value(%q, %q) = %q, %v; Request.Cookie = %+v, %v", lines, name, got, ok, c, err)
	}
}

func TestValueMatchesRequestCookie(t *testing.T) {
	for _, lines := range seedHeaders {
		for _, name := range []string{"WSESSION", "a", "b", "", "W SESSION", "wsession", "x=y"} {
			check(t, lines, name)
		}
	}
}

func TestValueAllocatesNothing(t *testing.T) {
	r := header("a=1; b=2; WSESSION=\"0123456789abcdef\"")
	if n := testing.AllocsPerRun(100, func() { Value(r, "WSESSION") }); n != 0 {
		t.Fatalf("Value allocates %.0f times, want 0", n)
	}
}

// FuzzValue compares Value with Request.Cookie; its committed corpus,
// testdata/fuzz/FuzzValue, holds seedHeaders under the name WSESSION.
func FuzzValue(f *testing.F) {
	f.Fuzz(func(t *testing.T, lines, name string) {
		check(t, lines, name)
	})
}
