package mvc

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"webmlgo/internal/descriptor"
)

// paramSeeds are queries for the differential test against ParseForm:
// repeated names, empty and value-less pairs, escapes good and bad, and
// the semicolons ParseQuery rejects.
var paramSeeds = []string{
	"",
	"volume=1",
	"a=1&b=two&c=3.5",
	"a=1&a=2&a=3",
	"a=&b",
	"&&a=1&&",
	"=x&a=1",
	"k%20ey=v%20al&plus=a+b",
	"bad=%zz&a=1",
	"bad%zz=1&a=2",
	"a=1;b=2&c=3",
	"a=%2B&b=%3D&c=%26",
	"a=x=y",
	"a=1&A=2",
	"kw=caf%C3%A9&_error=boom",
	"oid=7&name=wm1x3",
	"n=NaN&i=-0&f=1e3&h=0x10",
}

// sameParams reports whether two parameter maps hold the same names with
// values of the same type and form (NaN included).
func sameParams(a, b map[string]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || fmt.Sprintf("%T %v", v, v) != fmt.Sprintf("%T %v", w, w) {
			return false
		}
	}
	return true
}

// formParams is what requestParams must return: the first value of each
// name ParseForm finds.
func formParams(r *http.Request) map[string]Value {
	_ = r.ParseForm()
	out := make(map[string]Value)
	for k, vs := range r.Form {
		if len(vs) > 0 {
			out[k] = ConvertParam(vs[0])
		}
	}
	return out
}

// checkParams compares requestParams with ParseForm on a GET of the
// query, and on a POST of it with body values ahead of the query's.
func checkParams(t *testing.T, query, body string) {
	get := func() *http.Request {
		return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/page/p", RawQuery: query}}
	}
	if got, want := requestParams(get()), formParams(get()); !sameParams(got, want) {
		t.Fatalf("GET ?%s: requestParams %v, ParseForm %v", query, got, want)
	}
	post := func() *http.Request {
		return &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/op/o", RawQuery: query},
			Header: http.Header{"Content-Type": {"application/x-www-form-urlencoded"}},
			Body:   io.NopCloser(strings.NewReader(body))}
	}
	if got, want := requestParams(post()), formParams(post()); !sameParams(got, want) {
		t.Fatalf("POST ?%s with %q: requestParams %v, ParseForm %v", query, body, got, want)
	}
}

func TestRequestParamsMatchParseForm(t *testing.T) {
	for _, q := range paramSeeds {
		checkParams(t, q, "a=body&z=9")
	}
	r := httptest.NewRequest(http.MethodGet, "/page/p", nil)
	if n := testing.AllocsPerRun(10, func() { requestParams(r) }); n != 0 {
		t.Fatalf("a request without parameters allocates %.0f times, want 0", n)
	}
}

func FuzzRequestParams(f *testing.F) {
	for _, q := range paramSeeds {
		f.Add(q, "a=body")
	}
	f.Fuzz(func(t *testing.T, query, body string) {
		checkParams(t, query, body)
	})
}

func TestTakeFormStateNilWithoutFormState(t *testing.T) {
	s := NewSessionManager(0).Detached()
	s.Set(sessionUserKey, "alice")
	pd := &descriptor.Page{ID: "p", Units: []descriptor.UnitRef{{ID: "index"}, {ID: "entry"}}}
	if fs := takeFormState(s, pd); fs != nil {
		t.Fatalf("takeFormState = %v, want nil", fs)
	}
	s.Set(formStateKey("entry"), &FormState{Errors: map[string]string{"x": "required"}})
	if fs := takeFormState(s, pd); fs["entry"] == nil {
		t.Fatalf("takeFormState = %v, want the entry unit's state", fs)
	}
	if _, ok := s.Get(formStateKey("entry")); ok {
		t.Fatal("takeFormState left the form state in the session")
	}
}
