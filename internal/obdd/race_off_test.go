//go:build !race

package obdd

const raceEnabled = false
