//go:build !race

package sim

// splitMin is the number of events a windowed round must fire for
// Sharded.Run to hand the next round to its worker goroutines; smaller
// rounds run inline. BenchmarkShardedRound (5 domains, ~100 ns of host work
// per event) puts the break-even between inline and two workers between 480
// and 640 events per round on a 2-vCPU host (EXPERIMENTS.md).
const splitMin = 512
