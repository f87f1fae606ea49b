//go:build race

package instcache

// raceEnabled reports a -race build, whose sync.Pool drops entries at
// random, so allocation counts do not hold under it.
const raceEnabled = true
