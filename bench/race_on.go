//go:build race

package main

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops items on purpose and the allocation gates mean nothing.
const raceEnabled = true
