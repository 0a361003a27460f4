// MapReduce: a fan-out/fan-in DAG — one splitter, parallel mappers, one
// reducer — on the wired FIFO edges Molecule runs chains over, with the word-count
// computation performed for real while the latency comes from the model.
//
//	go run ./examples/mapreduce
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

const corpus = `serverless computing on heterogeneous computers enables both
general purpose devices and domain specific accelerators for serverless
applications the vectorized sandbox abstraction handles hardware
heterogeneity while the distributed shim handles the multi OS system
serverless functions start in milliseconds with container fork`

func main() {
	env := sim.NewEnv()
	machine := hw.Build(env, hw.Config{DPUs: 1})

	env.Spawn("driver", func(p *sim.Proc) {
		rt, err := molecule.New(p, machine, workloads.NewRegistry(), molecule.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		for _, fn := range workloads.MapReduceChain() {
			if err := rt.Deploy(p, fn,
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				log.Fatal(err)
			}
		}

		// Real computation: split -> map (parallel) -> reduce.
		const mappers = 2
		shards := workloads.SplitText(corpus, mappers)
		parts := make([]map[string]int, len(shards))
		for i, shard := range shards {
			parts[i] = workloads.MapWordCount(shard)
		}
		counts := workloads.ReduceWordCounts(parts)

		// Modeled execution: the same shape as a fan-out DAG on the machine,
		// warm vs the serialized equivalent.
		dag := molecule.MapReduceDAG(mappers)
		if _, err := rt.InvokeDAG(p, dag, molecule.ChainOptions{}); err != nil {
			log.Fatal(err) // boot instances
		}
		fan, err := rt.InvokeDAG(p, dag, molecule.ChainOptions{})
		if err != nil {
			log.Fatal(err)
		}
		serial, err := rt.InvokeDAG(p, molecule.Chain("mr-splitter", "mr-mapper", "mr-mapper", "mr-reducer"),
			molecule.ChainOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fan-out DAG (%d mappers): %v   serialized: %v   (%.2fx from parallel mappers)\n\n",
			mappers, fan.Total, serial.Total, float64(serial.Total)/float64(fan.Total))

		// Top words from the real computation.
		type wc struct {
			w string
			c int
		}
		var list []wc
		for w, c := range counts {
			list = append(list, wc{w, c})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].c != list[j].c {
				return list[i].c > list[j].c
			}
			return list[i].w < list[j].w
		})
		fmt.Println("top words (real word count):")
		for _, e := range list[:5] {
			fmt.Printf("  %-14s %d\n", e.w, e.c)
		}
	})
	env.Run()
}
