//go:build !race

package sched_test

// raceEnabled reports a build with the race detector (race_test.go holds
// the other value).
const raceEnabled = false
