//go:build race

package cloak

// raceEnabled reports a -race build. Its sync.Pool drops items at random,
// so the allocation budgets of TestHotPathAllocs are not read there.
const raceEnabled = true
