package sim_test

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Two processes exchange a value over a simulated channel; the clock
// advances only through simulated operations.
func Example() {
	env := sim.NewEnv()
	ch := sim.NewChan[string](env, 0)

	env.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(3 * time.Millisecond) // modeled work
		ch.Send(p, "result")
	})
	env.Spawn("consumer", func(p *sim.Proc) {
		v, _ := ch.Recv(p)
		fmt.Printf("got %q at t=%v\n", v, p.Now())
	})

	end := env.Run()
	fmt.Printf("simulation ended at %v\n", end)
	// Output:
	// got "result" at t=3ms
	// simulation ended at 3ms
}

// A Resource models contention: with one unit, the second worker waits for
// the first to release.
func ExampleResource() {
	env := sim.NewEnv()
	res := sim.NewResource(env, 1)
	worker := func(name string) {
		env.Spawn(name, func(p *sim.Proc) {
			res.Acquire(p)
			fmt.Printf("%s starts at %v\n", name, p.Now())
			p.Sleep(10 * time.Millisecond)
			res.Release()
		})
	}
	worker("first")
	worker("second")
	env.Run()
	// Output:
	// first starts at 0s
	// second starts at 10ms
}
