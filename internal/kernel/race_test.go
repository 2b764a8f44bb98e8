//go:build race

package kernel

// raceEnabled reports whether the race detector is on. It changes how a
// sync.Pool behaves: Put drops a random quarter of its items.
const raceEnabled = true
