//go:build race

package required

// raceEnabled reports whether the race detector instruments this test
// binary: the checker's log line names the run it is part of.
const raceEnabled = true
