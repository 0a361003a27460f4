package molecule

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestDAGValidate(t *testing.T) {
	if _, err := (DAG{}).Validate(); err == nil {
		t.Error("empty DAG accepted")
	}
	if _, err := (DAG{Nodes: []DAGNode{{Fn: "a", Deps: []int{0}}}}).Validate(); err == nil {
		t.Error("self-dependency accepted")
	}
	if _, err := (DAG{Nodes: []DAGNode{{Fn: "a", Deps: []int{5}}}}).Validate(); err == nil {
		t.Error("out-of-range dependency accepted")
	}
	// Cycle: 0 → 1 → 0.
	cyc := DAG{Nodes: []DAGNode{{Fn: "a", Deps: []int{1}}, {Fn: "b", Deps: []int{0}}}}
	if _, err := cyc.Validate(); err == nil {
		t.Error("cycle accepted")
	}
	order, err := MapReduceDAG(2).Validate()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, n := range order {
		pos[n] = i
	}
	if !(pos[0] < pos[1] && pos[0] < pos[2] && pos[1] < pos[3] && pos[2] < pos[3]) {
		t.Errorf("topological order wrong: %v", order)
	}
}

func TestChainBuilder(t *testing.T) {
	c := Chain("a", "b", "c")
	if len(c.Nodes) != 3 || len(c.Nodes[0].Deps) != 0 ||
		c.Nodes[2].Deps[0] != 1 {
		t.Errorf("chain structure wrong: %+v", c)
	}
}

// TestInvokeDAGProperty: random DAGs never deadlock. Each has up to 12
// nodes over the Alexa functions, all on the host, with fan-out, fan-in
// and repeated dependencies; its edges run forward in a hidden order that
// the node indices rotate, so index order need not be topological. Validate
// must accept it, InvokeDAG must return with no stage left blocked, and a
// warm run must leave the wiring counts where it found them.
func TestInvokeDAGProperty(t *testing.T) {
	alexa := workloads.AlexaChain()
	f := func(edges []uint16, nNodes, rot uint8) bool {
		n := int(nNodes%12) + 1
		idx := func(k int) int { return (k + int(rot)) % n }
		dag := DAG{Nodes: make([]DAGNode, n)}
		for i := range dag.Nodes {
			dag.Nodes[i].Fn = alexa[i%len(alexa)]
		}
		for _, e := range edges {
			from, to := int(e>>8)%n, int(e&0xff)%n
			if from == to {
				continue
			}
			if from > to {
				from, to = to, from
			}
			dag.Nodes[idx(to)].Deps = append(dag.Nodes[idx(to)].Deps, idx(from))
		}
		if _, err := dag.Validate(); err != nil {
			t.Errorf("%+v: %v", dag, err)
			return false
		}
		ok := true
		env := sim.NewEnv()
		m := hw.Build(env, hw.Config{})
		env.Spawn("client", func(p *sim.Proc) {
			rt, err := New(p, m, workloads.NewRegistry(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range alexa {
				if err := rt.Deploy(p, fn); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := rt.InvokeDAG(p, dag, ChainOptions{}); err != nil {
				t.Errorf("cold %+v: %v", dag, err)
				ok = false
				return
			}
			idle := countWiring(rt)
			if _, err := rt.InvokeDAG(p, dag, ChainOptions{}); err != nil {
				t.Errorf("warm %+v: %v", dag, err)
				ok = false
			}
			if got := countWiring(rt); got != idle {
				t.Errorf("%+v: counts %+v, want %+v", dag, got, idle)
				ok = false
			}
		})
		env.Run()
		if env.LiveProcs() != 0 {
			t.Errorf("%+v: %d procs still live: %v", dag, env.LiveProcs(), env.BlockedProcs())
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func deployMapReduce(t *testing.T, p *sim.Proc, rt *Runtime) {
	t.Helper()
	for _, fn := range workloads.MapReduceChain() {
		if err := rt.Deploy(p, fn, DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInvokeDAGPathEqualsChain: a path DAG runs exactly as the chain of its
// functions. Two fresh runtimes, warmed alike, run the Alexa chain once
// through InvokeDAG and once through InvokeChain; the results and the
// events each call schedules must be equal, co-located and across PUs.
func TestInvokeDAGPathEqualsChain(t *testing.T) {
	type outcome struct {
		res    ChainResult
		events int64
	}
	measure := func(t *testing.T, cross, viaDAG bool) outcome {
		var o outcome
		env := sim.NewEnv()
		m := hw.Build(env, hw.Config{DPUs: 2})
		env.Spawn("client", func(p *sim.Proc) {
			rt, chain, pl := chainRig(t, p, m)
			opts := ChainOptions{}
			if cross {
				opts.Placement = pl
			}
			if _, err := rt.InvokeChain(p, chain, opts); err != nil {
				t.Fatal(err)
			}
			before := env.Scheduled()
			var err error
			if viaDAG {
				o.res, err = rt.InvokeDAG(p, Chain(chain...), opts)
			} else {
				o.res, err = rt.InvokeChain(p, chain, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			o.events = env.Scheduled() - before
		})
		env.Run()
		return o
	}
	for _, tc := range []struct {
		name  string
		cross bool
	}{{"host", false}, {"cross-PU", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dag, chain := measure(t, tc.cross, true), measure(t, tc.cross, false)
			if !reflect.DeepEqual(dag, chain) {
				t.Errorf("path DAG %+v, chain %+v", dag, chain)
			}
			if len(chain.res.EdgeLatency) != len(workloads.AlexaChain())-1 {
				t.Errorf("%d edge latencies, want one per dependency", len(chain.res.EdgeLatency))
			}
		})
	}
}

// TestInvokeDAGFanOutParallelizes: two mappers that each take T overlap, so
// the fan-out DAG finishes at least T before the chain that runs the same
// functions one after the other.
func TestInvokeDAGFanOutParallelizes(t *testing.T) {
	run(t, hw.Config{}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployMapReduce(t, p, rt)
		fan := MapReduceDAG(2)
		serial := Chain("mr-splitter", "mr-mapper", "mr-mapper", "mr-reducer")
		// Warm both.
		if _, err := rt.InvokeDAG(p, fan, ChainOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.InvokeDAG(p, serial, ChainOptions{}); err != nil {
			t.Fatal(err)
		}
		fres, err := rt.InvokeDAG(p, fan, ChainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sres, err := rt.InvokeDAG(p, serial, ChainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mapper, err := rt.InvokeChain(p, []string{"mr-mapper"}, ChainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fres.Total > sres.Total-mapper.ExecTotal {
			t.Errorf("fan-out makespan %v not one mapper (%v) below serialized %v",
				fres.Total, mapper.ExecTotal, sres.Total)
		}
		// Exec totals match (same work, different schedule).
		if fres.ExecTotal != sres.ExecTotal {
			t.Errorf("exec totals differ: %v vs %v", fres.ExecTotal, sres.ExecTotal)
		}
		if len(fres.EdgeLatency) != 4 {
			t.Errorf("%d edge latencies, want one per dependency (4)", len(fres.EdgeLatency))
		}
	})
}

func TestInvokeDAGCrossPUEdges(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		deployMapReduce(t, p, rt)
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		dag := MapReduceDAG(2)
		local := ChainOptions{}
		cross := ChainOptions{Placement: []hw.PUID{0, dpu, 0, dpu}}
		if _, err := rt.InvokeDAG(p, dag, local); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.InvokeDAG(p, dag, cross); err != nil {
			t.Fatal(err)
		}
		lres, _ := rt.InvokeDAG(p, dag, local)
		cres, err := rt.InvokeDAG(p, dag, cross)
		if err != nil {
			t.Fatal(err)
		}
		if cres.Total <= lres.Total {
			t.Errorf("cross-PU DAG (%v) not slower than co-located (%v)", cres.Total, lres.Total)
		}
	})
}

func TestInvokeDAGErrors(t *testing.T) {
	run(t, hw.Config{FPGAs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if _, err := rt.InvokeDAG(p, DAG{}, ChainOptions{}); err == nil {
			t.Error("empty DAG invoked")
		}
		if _, err := rt.InvokeDAG(p, Chain("nope"), ChainOptions{}); err == nil {
			t.Error("undeployed DAG invoked")
		}
		rt.Deploy(p, "matmul")
		if _, err := rt.InvokeDAG(p, Chain("matmul"), ChainOptions{Placement: []hw.PUID{0, 0}}); err == nil {
			t.Error("bad placement length accepted")
		}
		// Fan-in and fan-out FPGA nodes are not modelled: a DAG, even a
		// path, takes no FPGA pin.
		if err := rt.Deploy(p, "vecstage", DefaultProfile(hw.FPGA)); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.InvokeDAG(p, Chain("vecstage"), ChainOptions{Placement: fpgaPins(rt, 1)}); err == nil {
			t.Error("DAG node pinned to an FPGA accepted")
		}
	})
}
