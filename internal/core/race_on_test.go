//go:build race

package core

// raceEnabled lets allocation regressions that depend on sync.Pool
// retention skip themselves: under the race detector the pool drops
// entries at random.
const raceEnabled = true
