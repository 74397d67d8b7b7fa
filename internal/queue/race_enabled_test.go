//go:build race

package queue

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation slows every memory access several-fold
// and makes wall-clock latency bounds meaningless.
const raceEnabled = true
