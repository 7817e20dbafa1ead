//go:build race

package obdd

// raceEnabled reports whether the test binary runs under the race detector,
// where sync.Pool deliberately drops a share of its items.
const raceEnabled = true
