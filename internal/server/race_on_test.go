//go:build race

package server_test

// raceEnabled lets allocation pins skip themselves: under the race
// detector sync.Pool drops entries at random.
const raceEnabled = true
