//go:build !race

package platform

// RaceEnabled reports whether this binary was built with -race.
const RaceEnabled = false
