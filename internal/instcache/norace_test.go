//go:build !race

package instcache

const raceEnabled = false
