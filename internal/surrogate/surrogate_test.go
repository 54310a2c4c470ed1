package surrogate

import (
	"slices"
	"testing"
	"time"
)

func TestTags(t *testing.T) {
	for _, c := range []struct {
		in, want []string
	}{
		{nil, nil},
		{[]string{""}, nil},
		{[]string{"entity:a"}, []string{"entity:a"}},
		{[]string{"entity:a", "entity:b#1"}, []string{"entity:a", "entity:b#1"}},
		{[]string{"entity:a entity:b+"}, []string{"entity:a", "entity:b+"}},
		{[]string{"entity:a, rel:r", "entity:b"}, []string{"entity:a", "rel:r", "entity:b"}},
	} {
		if got := Tags(c.in); !slices.Equal(got, c.want) {
			t.Errorf("Tags(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMaxAge(t *testing.T) {
	for sc, want := range map[string]time.Duration{
		"":                             time.Minute,
		"max-age=120":                  2 * time.Minute,
		`content="ESI/1.0", max-age=5`: 5 * time.Second,
		"max-age=-1":                   time.Minute,
		"max-age=x, max-age=7":         7 * time.Second,
		"no-store":                     time.Minute,
	} {
		if got := MaxAge(sc, time.Minute); got != want {
			t.Errorf("MaxAge(%q) = %v, want %v", sc, got, want)
		}
	}
}

func TestMaxAgeValueShared(t *testing.T) {
	a, b := MaxAgeValue(300), MaxAgeValue(300)
	if len(a) != 1 || cap(a) != 1 || a[0] != "max-age=300" || &a[0] != &b[0] {
		t.Fatalf("MaxAgeValue(300) = %q (cap %d), shared %v", a, cap(a), &a[0] == &b[0])
	}
	if n := testing.AllocsPerRun(100, func() { MaxAgeValue(300) }); n != 0 {
		t.Fatalf("a made value allocates %.0f times, want 0", n)
	}
}
