//go:build !race

package required

const raceEnabled = false
