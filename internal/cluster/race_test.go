//go:build race

package cluster

// raceEnabled reports a build with the race detector, whose instrumentation
// allocates on its own, so allocation ceilings cannot hold.
const raceEnabled = true
