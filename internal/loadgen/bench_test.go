package loadgen

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkDriveOpenLoop measures the generator's own host cost per
// request: an open-loop Poisson stream of about b.N arrivals (with a chain
// mix) against an invoker that serves each request in 1 ms of virtual time.
// allocs/req counts every allocation of the run, the arrival draws and the
// request processes included, divided by the requests issued.
func BenchmarkDriveOpenLoop(b *testing.B) {
	env := sim.NewEnv()
	var stats *Stats
	var before, after runtime.MemStats
	env.Spawn("driver", func(p *sim.Proc) {
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		var err error
		stats, err = Drive(p, sleepInvoker(time.Millisecond), Config{
			Seed:          1,
			Functions:     []string{"matmul", "pyaes", "chameleon", "image-resize"},
			ZipfS:         1.1,
			RatePerSec:    10000,
			Duration:      time.Duration(b.N) * 100 * time.Microsecond,
			Chains:        [][]string{{"pyaes", "matmul"}},
			ChainFraction: 0.2,
		})
		b.StopTimer()
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
	})
	env.Run()
	if stats.Requests > 0 {
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(stats.Requests), "allocs/req")
	}
}
