package edge

import (
	"bytes"
	"strings"
	"testing"
)

// reassemble concatenates literals, marking includes.
func reassemble(segs []Segment) string {
	var b strings.Builder
	for _, s := range segs {
		if s.Src != "" {
			b.WriteString("{" + s.Src + "}")
			continue
		}
		b.Write(s.Literal)
	}
	return b.String()
}

func TestParseESI(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"plain", "<html><body>hi</body></html>", "<html><body>hi</body></html>"},
		{"self-closed include", `a<esi:include src="/fragment/p/u"/>b`, "a{/fragment/p/u}b"},
		{"expanded include", `a<esi:include src="/f"></esi:include>b`, "a{/f}b"},
		{"two includes", `<esi:include src="/a"/><esi:include src="/b"/>`, "{/a}{/b}"},
		{"escaped ampersand in src", `<esi:include src="/f?a=1&amp;b=2"/>`, "{/f?a=1&b=2}"},
		{"single-quoted src", `<esi:include src='/f'/>`, "{/f}"},
		{"extra attributes", `<esi:include onerror="continue" src="/f" alt="/g"/>`, "{/f}"},
		{"whitespace around =", `<esi:include src = "/f" />`, "{/f}"},
		{"remove dropped", `a<esi:remove>hidden <b>markup</b></esi:remove>b`, "ab"},
		{"comment dropped", `a<esi:comment text="note"/>b`, "ab"},
		// Content between <!--esi and --> is preserved verbatim,
		// including the separating space.
		{"escape unwrapped", `a<!--esi <p>edge only</p> -->b`, "a <p>edge only</p> b"},
		{"escape with include", `<!--esi <esi:include src="/f"/>-->`, " {/f}"},
		{"nested remove inside escape", `<!--esi x<esi:remove>y</esi:remove>z-->`, " xz"},

		// Malformed input passes through verbatim.
		{"include without src", `a<esi:include alt="/f"/>b`, `a<esi:include alt="/f"/>b`},
		{"unterminated include", `a<esi:include src="/f"`, `a<esi:include src="/f"`},
		{"unterminated src quote", `a<esi:include src="/f >b`, `a<esi:include src="/f >b`},
		{"unterminated remove", `a<esi:remove>b`, `a<esi:remove>b`},
		{"unterminated escape", `a<!--esi b`, `a<!--esi b`},
		{"unknown esi tag", `a<esi:vars>$(x)</esi:vars>b`, `a<esi:vars>$(x)</esi:vars>b`},
		{"prefix collision", `a<esi:includefoo src="/f"/>b`, `a<esi:includefoo src="/f"/>b`},
		{"plain html comment", `a<!-- not esi -->b`, `a<!-- not esi -->b`},
		{"lone angle", "a < b", "a < b"},
		{"empty", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := reassemble(ParseESI([]byte(tc.in)))
			if got != tc.want {
				t.Fatalf("ParseESI(%q)\n got %q\nwant %q", tc.in, got, tc.want)
			}
		})
	}
}

// FuzzESI: the parser never panics, and any input without an ESI marker
// round-trips as a single literal run equal to the input.
func FuzzESI(f *testing.F) {
	f.Add("<html><esi:include src=\"/fragment/p/u?x=1\"/></html>")
	f.Add("<!--esi <esi:remove>x</esi:remove>-->")
	f.Add("<esi:include src='/f'></esi:include>")
	f.Add("<esi:include")
	f.Add("<<<esi:>><!--esi-->")
	f.Add("plain text, no markup")
	f.Fuzz(func(t *testing.T, in string) {
		segs := ParseESI([]byte(in))
		var total int
		for _, s := range segs {
			if s.Src == "" && len(s.Literal) == 0 {
				t.Fatal("empty segment emitted")
			}
			total += len(s.Literal)
		}
		if total > len(in) {
			t.Fatalf("literals longer than input: %d > %d", total, len(in))
		}
		if !strings.Contains(in, "<esi:") && !strings.Contains(in, "<!--esi") {
			if got := reassemble(segs); got != in {
				t.Fatalf("non-ESI input altered: %q -> %q", in, got)
			}
		}
	})
}

func TestAttrValue(t *testing.T) {
	if v, ok := attrValue([]byte(`<esi:include data-src="/x" src="/y"/>`), "src"); !ok || v != "/y" {
		t.Fatalf("attrValue skipped substring match wrong: %q %v", v, ok)
	}
	if _, ok := attrValue([]byte(`<esi:include src=/unquoted>`), "src"); ok {
		t.Fatal("unquoted value accepted")
	}
}

func TestParseESILargeLiteral(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 1<<16)
	segs := ParseESI(big)
	if len(segs) != 1 || !bytes.Equal(segs[0].Literal, big) {
		t.Fatal("large literal not passed through whole")
	}
}
