//go:build !race

package server

// raceEnabled reports whether the race detector, which adds allocations
// of its own, is built in.
const raceEnabled = false
