//go:build !race

package cloak

const raceEnabled = false
