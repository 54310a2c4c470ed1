package render

import (
	"testing"
)

// BenchmarkRenderPage measures the per-page rendering cost, allocations
// included, of a warm serve program: the statics of a three-unit page
// appended around what its tags write into one pooled buffer. Run with
// -benchmem. The tree-walking render it replaced (clone, walk, one raw
// node per unit, serialize) read, on the same fixture and machine:
//
//	tree walk: BenchmarkRenderPage   6452 ns/op  3792 B/op  58 allocs/op
//	program:   BenchmarkRenderPage   2278 ns/op   984 B/op  11 allocs/op
//
// (The allocation counts repeat exactly; the times are one machine's.)
func BenchmarkRenderPage(b *testing.B) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RenderPage(pd, state, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderUnitFragment isolates the fragment path: one unit's
// markup, as the edge tier fetches it.
func BenchmarkRenderUnitFragment(b *testing.B) {
	pd, state, ctx := pageFixture()
	e := engineWith(pd, tplP1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RenderUnitFragment(pd, state, ctx, "i1"); err != nil {
			b.Fatal(err)
		}
	}
}
