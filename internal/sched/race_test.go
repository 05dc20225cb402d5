//go:build race

package sched_test

// raceEnabled reports a build with the race detector (norace_test.go
// holds the other value).
const raceEnabled = true
