//go:build !race

package anonymizer

const raceEnabled = false
