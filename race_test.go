//go:build race

package presence_test

// raceEnabled lets allocation-count assertions skip under the race
// detector, whose instrumentation allocates on its own.
const raceEnabled = true
