package sim_test

// Kernel microbenchmarks. The bodies live in simbench so the benchmark
// harness's ladder can run the same measurements; see that package for what
// each one isolates. Run with:
//
//	go test ./internal/sim -bench Kernel -benchmem
//	go test ./internal/sim -bench ChanPingPong -benchmem

import (
	"testing"

	"repro/internal/sim/simbench"
)

func BenchmarkKernelSleep(b *testing.B)          { simbench.Sleep(b) }
func BenchmarkKernelSleepContended(b *testing.B) { simbench.SleepContended(b) }
func BenchmarkKernelSpawn(b *testing.B)          { simbench.Spawn(b) }
func BenchmarkChanPingPong(b *testing.B)         { simbench.ChanPingPong(b) }
func BenchmarkKernelCrossShardSend(b *testing.B) { simbench.CrossShardSend(b) }
