//go:build !race

package traclus_test

// raceEnabled reports a -race build; see race_on_test.go.
const raceEnabled = false
