//go:build race

package webmlgo

// raceEnabled reports whether the race detector instruments this test
// binary; allocation counts are meaningless under it.
const raceEnabled = true
