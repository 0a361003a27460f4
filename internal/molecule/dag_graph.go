package molecule

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// DAGNode is one vertex of a general serverless DAG: a function plus the
// indices of the nodes whose outputs it consumes.
type DAGNode struct {
	Fn   string
	Deps []int
}

// DAG is a directed acyclic graph of functions — the general form of the
// paper's "function chain (or DAG)" (§4.1). Fan-out (one producer, many
// consumers) and fan-in (a consumer joining several producers) both work;
// independent branches execute concurrently.
type DAG struct {
	Nodes []DAGNode
}

// Chain builds a linear DAG from a function list.
func Chain(names ...string) DAG {
	d := DAG{}
	for i, n := range names {
		node := DAGNode{Fn: n}
		if i > 0 {
			node.Deps = []int{i - 1}
		}
		d.Nodes = append(d.Nodes, node)
	}
	return d
}

// MapReduceDAG builds the fan-out/fan-in MapReduce application: one
// splitter, `mappers` parallel mappers, one reducer.
func MapReduceDAG(mappers int) DAG {
	d := DAG{Nodes: []DAGNode{{Fn: "mr-splitter"}}}
	var mapIdx []int
	for i := 0; i < mappers; i++ {
		d.Nodes = append(d.Nodes, DAGNode{Fn: "mr-mapper", Deps: []int{0}})
		mapIdx = append(mapIdx, i+1)
	}
	d.Nodes = append(d.Nodes, DAGNode{Fn: "mr-reducer", Deps: mapIdx})
	return d
}

// Validate checks acyclicity and dependency bounds, returning a topological
// order.
func (d DAG) Validate() ([]int, error) {
	n := len(d.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("molecule: empty DAG")
	}
	indeg := make([]int, n)
	for i, node := range d.Nodes {
		for _, dep := range node.Deps {
			if dep < 0 || dep >= n {
				return nil, fmt.Errorf("molecule: node %d depends on out-of-range node %d", i, dep)
			}
			if dep == i {
				return nil, fmt.Errorf("molecule: node %d depends on itself", i)
			}
			indeg[i]++
		}
	}
	var order []int
	queue := make([]int, 0, n)
	for i, deg := range indeg {
		if deg == 0 {
			queue = append(queue, i)
		}
	}
	consumers := make([][]int, n)
	for i, node := range d.Nodes {
		for _, dep := range node.Deps {
			consumers[dep] = append(consumers[dep], i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, c := range consumers[i] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("molecule: DAG contains a cycle")
	}
	return order, nil
}

// DAGOptions configure one DAG invocation.
type DAGOptions struct {
	// Placement pins each node to a PU (nil → host for every node).
	Placement []hw.PUID
	Arg       workloads.Arg
}

// DAGResult reports one DAG invocation.
type DAGResult struct {
	// Total is the end-to-end makespan: first node's trigger to last sink's
	// completion.
	Total time.Duration
	// NodeFinish is each node's completion time relative to the start.
	NodeFinish []time.Duration
	// ExecTotal sums all handlers' execution time (CPU work, not makespan).
	ExecTotal  time.Duration
	ColdStarts int
}

// InvokeDAG executes a general DAG: every node runs as its own simulation
// process that waits for all of its producers, pays the edge communication
// cost from each producer's PU, executes, and signals its consumers.
// Independent branches overlap in time, so fan-out genuinely parallelizes.
func (rt *Runtime) InvokeDAG(p *sim.Proc, dag DAG, opts DAGOptions) (DAGResult, error) {
	order, err := dag.Validate()
	if err != nil {
		return DAGResult{}, err
	}
	n := len(dag.Nodes)
	placement := opts.Placement
	if placement == nil {
		placement = make([]hw.PUID, n)
		for i := range placement {
			placement[i] = rt.hostID
		}
	}
	if len(placement) != n {
		return DAGResult{}, fmt.Errorf("molecule: placement length %d != %d nodes", len(placement), n)
	}

	names := make([]string, n)
	for i, node := range dag.Nodes {
		names[i] = node.Fn
	}
	insts, deps, cold, err := rt.acquireAll(p, names, placement, order)
	if err != nil {
		return DAGResult{}, err
	}
	defer rt.releaseAll(p, insts)
	res := DAGResult{ColdStarts: cold}

	// One completion event per node; consumers wait on their producers'.
	doneEv := make([]*sim.Event, n)
	for i := range doneEv {
		doneEv[i] = sim.NewEvent(rt.Env)
	}
	finish := make([]sim.Time, n)
	execDur := make([]time.Duration, n)
	all := sim.NewWaitGroup(rt.Env)
	all.Add(n)
	start := p.Now()

	for i := 0; i < n; i++ {
		i := i
		node := dag.Nodes[i]
		inst, d := insts[i], deps[i]
		rt.Env.Spawn(fmt.Sprintf("dag-%d-%s", i, node.Fn), func(fp *sim.Proc) {
			defer all.Done()
			// Join all producers, paying each edge's transport.
			for _, dep := range node.Deps {
				doneEv[dep].Wait(fp)
				rt.chargeEdge(fp, insts[dep], inst, deps[dep].Fn.Name, opts.Arg)
			}
			fp.Sleep(scaledDispatch(inst.node.pu) / 2)
			t0 := fp.Now()
			inst.sb.Inst.Invoke(fp, d.Fn.CPUCost(opts.Arg), inst.forked)
			execDur[i] = fp.Now().Sub(t0)
			inst.node.busy += execDur[i]
			fp.Sleep(scaledDispatch(inst.node.pu) / 2)
			finish[i] = fp.Now()
			doneEv[i].Trigger(nil)
		})
	}
	all.Wait(p)

	res.NodeFinish = make([]time.Duration, n)
	for i := range finish {
		res.NodeFinish[i] = time.Duration(finish[i] - start)
		if res.NodeFinish[i] > res.Total {
			res.Total = res.NodeFinish[i]
		}
		res.ExecTotal += execDur[i]
	}
	for i, d := range deps {
		pr, _ := d.ProfileFor(insts[i].node.pu.Kind)
		rt.bill.Record(d.Fn.Name, insts[i].node.pu.Kind, execDur[i], pr.PricePerMs)
	}
	return res, nil
}

// chargeEdge charges the one-way data movement of a DAG edge from producer
// to consumer: local FIFO ops when co-located, nIPC transfer otherwise.
func (rt *Runtime) chargeEdge(p *sim.Proc, from, to *instance, producerFn string, arg workloads.Arg) {
	fn, err := rt.Registry.Get(producerFn)
	var payload int
	if err == nil {
		_, payload = fn.Sizes(arg)
	}
	if from.node.pu.ID == to.node.pu.ID {
		// Local FIFO: producer write + consumer read.
		p.Sleep(2 * from.node.os.Costs.FIFOOp)
		return
	}
	// nIPC: XPUcall on both sides + interconnect transfer.
	p.Sleep(from.node.node.Mode.CallOverhead(from.node.pu.Kind))
	rt.Machine.Transfer(p, from.node.pu.ID, to.node.pu.ID, payload)
	p.Sleep(to.node.node.Mode.CallOverhead(to.node.pu.Kind))
}
