//go:build race

package traclus_test

// raceEnabled reports a -race build, where sync.Pool drops a quarter of
// its Puts at random and allocation counts through a pool vary.
const raceEnabled = true
