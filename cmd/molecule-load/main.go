// Command molecule-load runs a steady-state load test against a simulated
// heterogeneous machine: Poisson arrivals, Zipf function popularity, and a
// configurable keep-alive cache, reporting cold-start rate and latency
// percentiles.
//
//	molecule-load -rate 100 -duration 30s -zipf 1.2 -cache 16 -dpus 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/loadgen"
	"repro/internal/molecule"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// write renders into path ("-" = stdout).
func write(path string, render func(*os.File) error) {
	f := os.Stdout
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
	}
	if err := render(f); err != nil {
		log.Fatal(err)
	}
	if path != "-" {
		log.Printf("wrote %s", path)
	}
}

func main() {
	var (
		rate     = flag.Float64("rate", 100, "mean request rate per second")
		duration = flag.Duration("duration", 30*time.Second, "virtual-time test duration")
		zipf     = flag.Float64("zipf", 1.2, "function popularity skew (0 = uniform)")
		cache    = flag.Int("cache", 16, "keep-alive warm instances per PU")
		dpus     = flag.Int("dpus", 1, "number of Bluefield DPUs")
		seed     = flag.Int64("seed", 1, "random seed")
		fns      = flag.String("functions", "matmul,pyaes,chameleon,image-resize,dd",
			"comma-separated function population")
		cfork   = flag.Bool("cfork", true, "use cfork-based cold starts")
		trace   = flag.String("trace", "", "write the load run's span tree as Chrome trace_event JSON to `file` (\"-\" = stdout)")
		metrics = flag.String("metrics", "", "write the load run's metrics as Prometheus text exposition to `file` (\"-\" = stdout)")
	)
	flag.Parse()

	functions := strings.Split(*fns, ",")
	env := sim.NewEnv()
	machine := hw.Build(env, hw.Config{DPUs: *dpus})

	// Observability rides the same path moleculed's -trace/-metrics use:
	// one Observer on the runtime, exporters dumped after the run.
	var o *obs.Observer
	if *trace != "" || *metrics != "" {
		o = obs.New(env)
	}

	env.Spawn("loadgen", func(p *sim.Proc) {
		opts := molecule.DefaultOptions()
		opts.KeepWarmPerPU = *cache
		opts.UseCfork = *cfork
		rt, err := molecule.New(p, machine, workloads.NewRegistry(), opts)
		if err != nil {
			log.Fatal(err)
		}
		rt.SetObserver(o) // nil-safe: detached unless -trace/-metrics given
		for _, fn := range functions {
			if err := rt.Deploy(p, fn,
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				log.Fatal(err)
			}
		}
		stats, err := loadgen.Run(p, rt, loadgen.Config{
			Seed:       *seed,
			Functions:  functions,
			ZipfS:      *zipf,
			RatePerSec: *rate,
			Duration:   *duration,
		})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("requests:    %d over %v (rate %.0f/s, zipf %.2f, seed %d)\n",
			stats.Requests, *duration, *rate, *zipf, *seed)
		fmt.Printf("cold starts: %d (%.1f%%)   errors: %d\n",
			stats.ColdStarts, stats.ColdRate()*100, stats.Errors)
		fmt.Printf("latency:     %s\n", stats.Latency.Summary())
		fmt.Printf("billing:     %.1f units total\n", rt.Billing().Total())
		fmt.Println("\nper-function traffic:")
		for _, fn := range functions {
			fmt.Printf("  %-16s %5d requests\n", fn, stats.PerFunc[fn])
		}
		fmt.Printf("\nmachine: %d PUs, capacity %d instances, live at end %d\n",
			len(machine.PUs()), rt.Capacity(), rt.LiveInstances())
	})
	env.Run()

	if *trace != "" {
		write(*trace, func(f *os.File) error { return o.Tracer.WriteChromeTrace(f) })
	}
	if *metrics != "" {
		write(*metrics, func(f *os.File) error { return o.Metrics.WritePrometheus(f) })
	}
}
