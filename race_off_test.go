//go:build !race

package webmlgo

const raceEnabled = false
