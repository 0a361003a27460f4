package molecule

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/sandbox"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/xpu"
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

// ChainOptions configure a function-chain or DAG invocation.
type ChainOptions struct {
	// Placement pins each function to a PU; nil applies the chain-affinity
	// policy (§5 "Profile selections"): the whole chain lands on the host.
	// Entries of -1 fall back to the host. InvokeChain also takes FPGA pins.
	Placement []hw.PUID
	// Arg parameterizes cost models.
	Arg workloads.Arg
	// ForceCopy turns off DRAM retention between neighbouring FPGA
	// functions (the Fig 13 "Copying" series).
	ForceCopy bool
}

// ChainResult reports a chain or DAG invocation's end-to-end outcome.
type ChainResult struct {
	Total time.Duration
	// EdgeLatency is the per-edge request latency: caller write start →
	// callee dispatch complete (what Fig 12 plots), one entry per FIFO
	// edge between two functions, in node order and then Deps order. The
	// gateway's edges into the sources are dropped, and an edge into or out
	// of an FPGA function is no FIFO: its DMA or DRAM retention is charged
	// inside that function's run.
	EdgeLatency []time.Duration
	// ExecTotal sums handler execution across the chain.
	ExecTotal time.Duration
	// ColdStarts counts instances that had to cold start.
	ColdStarts int
}

// pipe is one direction of a chain edge: a local FIFO when both ends share
// a PU, an XPU-FIFO otherwise.
type pipe struct {
	local *localos.FIFO
	// sender / receiver descriptors for the nIPC case.
	sendFD *xpu.FD
	recvFD *xpu.FD
	// The receiver's read in progress, on local or on recvFD: a pipe has
	// one reader, which waits for each message without its stack (see
	// pipe.Step). after is the dispatch work the reader does next when the
	// read succeeds, or noDispatch; owed is set until it is charged.
	localRead localos.Reader
	nipcRead  xpu.Reader
	after     time.Duration
	reading   bool
	owed      bool
}

// noDispatch marks a pipe read that no dispatch work follows.
const noDispatch time.Duration = -1

var errChainFIFOClosed = errors.New("molecule: chain FIFO closed")

// zeroPayload backs the body of every chain and resident message: the FIFO
// cost model reads only a payload's length, so messages share one zeroed
// array instead of allocating their simulated size.
var zeroPayload [1 << 20]byte

// payload returns an n-byte message body. cap == len, so an append by a
// receiver reallocates instead of writing into the shared array; bodies
// larger than the array are allocated.
func payload(n int) []byte {
	if n <= len(zeroPayload) {
		return zeroPayload[:n:n]
	}
	return make([]byte, n)
}

func (pp *pipe) send(p *sim.Proc, m localos.Message) error {
	if pp.local != nil {
		if !pp.local.Write(p, m) {
			return errChainFIFOClosed
		}
		return nil
	}
	return pp.sendFD.Write(p, m)
}

// recv reads the next message as a stepped wait, then charges after of
// dispatch work (unless after is noDispatch) if the read succeeds.
func (pp *pipe) recv(p *sim.Proc, after time.Duration) (localos.Message, error) {
	p.Wait(pp.read(after))
	return pp.endRead(p)
}

// read arms the pipe's read for its reader and returns it as the wait to
// step; endRead completes it once the wait is over.
func (pp *pipe) read(after time.Duration) sim.Step {
	if pp.local != nil {
		pp.localRead.Reset(pp.local)
	} else {
		pp.nipcRead.Reset(pp.recvFD)
	}
	pp.after, pp.reading, pp.owed = after, true, after != noDispatch
	return pp
}

// Step reads the message, then, when the read has settled with nothing
// left for the reader's coroutine, charges the dispatch work that follows
// it: the reader's process would do nothing but sleep until then. See
// sim.Step.
func (pp *pipe) Step(p *sim.Proc, val any) bool {
	if !pp.reading {
		return true // the dispatch sleep is over
	}
	var settled bool
	if pp.local != nil {
		if !pp.localRead.Step(p, val) {
			return false
		}
		settled = pp.localRead.Settled()
	} else {
		if !pp.nipcRead.Step(p, val) {
			return false
		}
		settled = pp.nipcRead.Settled()
	}
	pp.reading = false
	if !pp.owed || !settled {
		return true
	}
	pp.owed = false
	return p.SleepStep(pp.after)
}

// endRead completes the read on the reader's coroutine, charging the
// dispatch work the wait could not.
func (pp *pipe) endRead(p *sim.Proc) (localos.Message, error) {
	var m localos.Message
	var err error
	if pp.local != nil {
		var ok bool
		if m, ok = pp.localRead.Finish(); !ok {
			err = errChainFIFOClosed
		}
	} else {
		m, err = pp.nipcRead.Finish(p)
	}
	if err == nil && pp.owed {
		pp.owed = false
		p.Sleep(pp.after)
	}
	return m, err
}

// close wakes every process blocked on the pipe. Both descriptors of an
// nIPC pipe share one queue, so aborting one closes it.
func (pp *pipe) close() {
	if pp.local != nil {
		pp.local.Close()
		return
	}
	pp.recvFD.Abort()
}

// unlink removes whatever part of the pipe was built from its OS and shim,
// recycling the host objects. It charges nothing: like close, it is runtime
// bookkeeping, not an XPUcall.
func (pp *pipe) unlink() {
	if pp.local != nil {
		pp.local.Remove()
	}
	if pp.recvFD != nil {
		pp.recvFD.Unlink()
	}
	if pp.sendFD != nil {
		pp.sendFD.Unlink()
	}
	*pp = pipe{}
}

// edge is the full-duplex direct connection between a caller and callee
// (§4.3 "direct connect": a pair of FIFOs, no intermediate bus or engine).
// Each call sends one request and one response over it.
type edge struct {
	req  pipe
	resp pipe
	// to is the callee's stage.
	to int
	// sentAt is when the caller began the request, for EdgeLatency.
	sentAt sim.Time
}

// chainAbort tears a chain down on its first error. A stage (or the
// driver) whose FIFO operation fails records the error and closes every
// pipe of the chain, so each process parked on a read or a full write wakes
// and exits instead of waiting for a peer that will never answer.
type chainAbort struct {
	err   error
	edges []edge
}

func (a *chainAbort) fail(err error) {
	if a.err != nil {
		return
	}
	a.err = err
	for i := range a.edges {
		a.edges[i].req.close()
		a.edges[i].resp.close()
	}
}

// span is a half-open range of edge indices.
type span struct{ lo, hi int }

// chainWiring is the FIFO plumbing of one call, or of a Resident's calls: a
// gateway process on the host and the edges of the call graph. wireChain builds it and unwireChain
// releases it; the Runtime recycles the struct and its slices.
type chainWiring struct {
	gw endpoint
	// edges holds one gateway edge into each source stage, then one edge
	// per dependency, in stage order and then Deps order. On a path
	// without FPGA nodes edges[i] is stage i's in-edge.
	edges []edge
	// sources counts the gateway edges at the front of edges.
	sources int
	// Stage i reads its requests on edges[in[i].lo:in[i].hi] and sends on
	// edges[out[k]] for k in [outAt[i], outAt[i+1]).
	in      []span
	out     []int
	outAt   []int
	abort   chainAbort
	execDur []time.Duration
	waits   []stageWait // stage i's first wait
}

// endpoint is one side of a chain edge: a shim node plus the OS process
// that owns the FIFO descriptors.
type endpoint struct {
	node *puNode
	proc *localos.Process
}

func instEndpoint(inst *instance) endpoint {
	return endpoint{node: inst.node, proc: inst.sb.Inst.Proc}
}

// depsOf returns stage i's FIFO producers: nodes[i].Deps, or, when nodes
// is nil (a path), i-1 written to buf unless either is an FPGA node.
func depsOf(nodes []DAGNode, insts []*instance, i int, buf *[1]int) []int {
	if nodes != nil {
		return nodes[i].Deps
	}
	if i == 0 || insts[i] == nil || insts[i-1] == nil {
		return nil
	}
	buf[0] = i - 1
	return buf[:]
}

// wireChain starts a gateway process and wires the call graph over insts:
// a duplex edge from the gateway into each source stage, then one per
// dependency. nodes gives them; nil wires a path, whose FPGA nodes (nil
// instances) take no edge. It is all or nothing: on an error it releases
// what it built and returns no wiring; otherwise the caller hands the
// wiring back with unwireChain once no process uses its FIFOs.
func (rt *Runtime) wireChain(p *sim.Proc, insts []*instance, nodes []DAGNode) (*chainWiring, error) {
	var w *chainWiring
	if n := len(rt.freeWirings); n > 0 {
		w = rt.freeWirings[n-1]
		rt.freeWirings[n-1] = nil
		rt.freeWirings = rt.freeWirings[:n-1]
	} else {
		w = new(chainWiring)
	}
	hostNode := rt.nodes[rt.hostID]
	w.gw = endpoint{node: hostNode, proc: hostNode.os.NewDetachedProcess("gateway")}
	ok := false
	defer func() {
		if !ok {
			rt.unwireChain(w)
		}
	}()
	n := len(insts)
	var buf [1]int
	w.in = append(w.in, make([]span, n)...)
	w.outAt = append(w.outAt, make([]int, n+1)...)
	for i, inst := range insts {
		if inst != nil && len(depsOf(nodes, insts, i, &buf)) == 0 {
			w.in[i] = span{len(w.edges), len(w.edges) + 1}
			if err := rt.addEdge(p, w, w.gw, i, inst); err != nil {
				return nil, err
			}
		}
	}
	w.sources = len(w.edges)
	for i, inst := range insts {
		ds := depsOf(nodes, insts, i, &buf)
		if len(ds) == 0 {
			continue
		}
		w.in[i].lo = len(w.edges)
		for _, d := range ds {
			w.outAt[d]++
			if err := rt.addEdge(p, w, instEndpoint(insts[d]), i, inst); err != nil {
				return nil, err
			}
		}
		w.in[i].hi = len(w.edges)
	}
	// Group the dependency edges by producer, in edge order: out-degrees
	// become running totals, and placing the edges last to first leaves
	// outAt[i] at the start of stage i's group.
	for i := 1; i <= n; i++ {
		w.outAt[i] += w.outAt[i-1]
	}
	w.out = append(w.out, make([]int, w.outAt[n])...)
	for i := n - 1; i >= 0; i-- {
		ds := depsOf(nodes, insts, i, &buf)
		for k := len(ds) - 1; k >= 0; k-- {
			w.outAt[ds[k]]--
			w.out[w.outAt[ds[k]]] = w.in[i].lo + k
		}
	}
	w.abort.edges = w.edges
	ok = true
	return w, nil
}

// unwireChain releases a chain's wiring: every FIFO leaves its OS or the
// shim with every capability on it, the gateway's CAP_Group is dropped, and
// the gateway process exits. No process may be parked on the FIFOs. It
// charges no virtual time and schedules no event — teardown is runtime
// bookkeeping like FD.Abort, not a modeled xfifo_close.
func (rt *Runtime) unwireChain(w *chainWiring) {
	for i := range w.edges {
		w.edges[i].req.unlink()
		w.edges[i].resp.unlink()
	}
	gw := w.gw
	gw.node.node.Unregister(gw.proc)
	gw.node.os.Exit(gw.proc)
	clear(w.waits)
	*w = chainWiring{
		edges: w.edges[:0], in: w.in[:0], out: w.out[:0], outAt: w.outAt[:0],
		execDur: w.execDur[:0], waits: w.waits[:0],
	}
	rt.freeWirings = append(rt.freeWirings, w)
}

// addEdge appends to w a duplex connection from caller to stage to's
// instance and wires it. The request FIFO is homed at the callee (its
// self_fifo); the response FIFO at the caller. On an error the edge holds
// what was built, for unwireChain.
func (rt *Runtime) addEdge(p *sim.Proc, w *chainWiring, caller endpoint, to int, inst *instance) error {
	w.edges = append(w.edges, edge{to: to})
	e := &w.edges[len(w.edges)-1]
	callee := instEndpoint(inst)
	if caller.node.pu.ID == callee.node.pu.ID {
		os := caller.node.os
		e.req.local = os.CreateFIFO(rt.nextFIFO("req"), 4)
		e.resp.local = os.CreateFIFO(rt.nextFIFO("resp"), 4)
		return nil
	}
	callerX := caller.node.node.Register(caller.proc)
	calleeX := callee.node.node.Register(callee.proc)
	if err := rt.connect(p, &e.req, callee, calleeX, callerX, caller.node.node, "req"); err != nil {
		return err
	}
	// In the response pipe the callee sends and the caller receives.
	return rt.connect(p, &e.resp, caller, callerX, calleeX, callee.node.node, "resp")
}

// connect builds pp as an XPU-FIFO homed at home, readable by its owner
// homeX and connected for the peer peerX on peerNode.
func (rt *Runtime) connect(p *sim.Proc, pp *pipe, home endpoint, homeX, peerX xpu.XPID, peerNode *xpu.Node, name string) error {
	uuid := rt.nextFIFO(name)
	fd, err := home.node.node.FIFOInit(p, homeX, uuid, 4)
	if err != nil {
		return err
	}
	pp.recvFD = fd
	obj := xpu.ObjID{Kind: "fifo", UUID: uuid}
	if err := home.node.node.GrantCap(p, homeX, peerX, obj, xpu.PermRead|xpu.PermWrite); err != nil {
		return err
	}
	fd, err = peerNode.FIFOConnect(p, peerX, uuid)
	if err != nil {
		return err
	}
	pp.sendFD = fd
	return nil
}

// InvokeChain runs a synchronous function chain over direct-connect
// IPC/nIPC: each function instance runs as its own process, blocked on its
// request FIFO; requests flow down the chain and the response propagates
// back up (Fig 12, Fig 14e). A function pinned to an FPGA runs on the
// driver instead, between FIFO-wired runs of the others (§4.3, Fig 13).
func (rt *Runtime) InvokeChain(p *sim.Proc, names []string, opts ChainOptions) (ChainResult, error) {
	return rt.invokeGraph(p, names, nil, nil, opts)
}

// InvokeDAG runs a general DAG on InvokeChain's executor and wiring. The
// gateway calls every source; each node waits for a request from every
// producer, executes, calls every consumer and collects their responses,
// then answers every producer. Independent branches overlap in time, so
// fan-out parallelizes; a path DAG runs exactly as the chain of its
// functions. EdgeLatency has one entry per dependency.
func (rt *Runtime) InvokeDAG(p *sim.Proc, dag DAG, opts ChainOptions) (ChainResult, error) {
	order, err := dag.Validate()
	if err != nil {
		return ChainResult{}, err
	}
	names := make([]string, len(dag.Nodes))
	for i, node := range dag.Nodes {
		names[i] = node.Fn
	}
	return rt.invokeGraph(p, names, dag.Nodes, order, opts)
}

// invokeGraph is the executor behind InvokeChain and InvokeDAG: stage i
// runs names[i] and depends on nodes[i].Deps (nil nodes: a path). order is
// a topological order (nil: index order); instances are acquired in it and
// stages spawned in its reverse. FPGA nodes are a path's only. It acquires
// and wires the instances, and runGraph, which also runs each Resident
// call, runs the call over them.
func (rt *Runtime) invokeGraph(p *sim.Proc, names []string, nodes []DAGNode, order []int, opts ChainOptions) (ChainResult, error) {
	if len(names) == 0 {
		return ChainResult{}, fmt.Errorf("molecule: empty chain")
	}
	n := len(names)
	if pl := opts.Placement; pl != nil && len(pl) != n {
		return ChainResult{}, fmt.Errorf("molecule: placement length %d != %d functions", len(pl), n)
	}
	accel, err := rt.accelNodes(p, names, opts.Placement, nodes != nil)
	if err != nil {
		return ChainResult{}, err
	}
	insts, deps, cold, err := rt.acquireAll(p, names, opts.Placement, order, accel)
	if err != nil {
		return ChainResult{}, err
	}
	defer rt.releaseAll(p, insts)

	w, err := rt.wireChain(p, insts, nodes)
	if err != nil {
		return ChainResult{}, err
	}
	// Every stage has exited by the time this runs: runGraph waits for
	// them on every path.
	defer rt.unwireChain(w)
	res, err := rt.runGraph(p, w, insts, deps, accel, order, opts)
	if err != nil {
		return ChainResult{}, err
	}
	res.ColdStarts = cold
	return res, nil
}

// runGraph runs one call over w, the wiring of insts: stage i runs deps[i]
// on insts[i], or on the driver when accel[i] is set. order is as for
// invokeGraph. It returns once every stage has exited, so w can run again
// or be unwired; an aborted call leaves w's pipes closed.
func (rt *Runtime) runGraph(p *sim.Proc, w *chainWiring, insts []*instance, deps []*Deployment, accel []accelNode, order []int, opts ChainOptions) (ChainResult, error) {
	n := len(insts)
	edgeLat := make([]time.Duration, len(w.edges))
	w.execDur = append(w.execDur[:0], make([]time.Duration, n)...)
	w.waits = append(w.waits[:0], make([]stageWait, n)...)
	edges, execDur := w.edges, w.execDur

	// Spawn one process per instance, consumers first. Each starts parked
	// in its first wait (every stage has an in-edge), so it takes a
	// coroutine only once that wait is over.
	done := sim.NewWaitGroup(rt.Env)
	for k := n - 1; k >= 0; k-- {
		i := k
		if order != nil {
			i = order[k]
		}
		inst := insts[i]
		if inst == nil {
			continue // the driver runs FPGA nodes
		}
		done.Add(1)
		in := w.in[i]
		sw := &w.waits[i]
		*sw = stageWait{
			req: &edges[in.lo].req, inst: inst, cost: deps[i].Fn.CPUCost(opts.Arg), last: in.hi-in.lo == 1,
		}
		sw.req.read(stageDispatch(in, in.lo, inst))
		rt.Env.SpawnWaiting("chain-"+inst.rec.name, sw, func(fp *sim.Proc) {
			defer done.Done()
			// in and sw are re-derived, not captured: every captured
			// variable grows each stage's closure, and chain-nipc's peak
			// heap moves with the bytes a chain allocates.
			abort := &w.abort
			in, out := w.in[i], w.out[w.outAt[i]:w.outAt[i+1]]
			d := deps[i]
			sw := &w.waits[i]
			// The language runtime's per-hop dispatch work splits between
			// the sender (serialize the event) and the receiver
			// (deserialize, schedule the handler), each on its own PU. The
			// last request read charges the receiver's half.
			half := scaledDispatch(inst.node.pu) / 2
			_, err := edges[in.lo].req.endRead(fp)
			for e := in.lo + 1; e < in.hi && err == nil; e++ {
				_, err = edges[e].req.recv(fp, stageDispatch(in, e, inst))
			}
			if err != nil {
				abort.fail(err)
				return
			}
			start := fp.Now()
			if sw.ran {
				start = sw.start
			}
			for e := in.lo; e < in.hi; e++ {
				edgeLat[e] = start.Sub(edges[e].sentAt)
			}
			if !sw.ran {
				inst.sb.Inst.Invoke(fp, d.Fn.CPUCost(opts.Arg), inst.sb.Forked)
			}
			execDur[i] = fp.Now().Sub(start)
			inst.node.busy += execDur[i]

			// Call every consumer, then collect their responses; the last
			// one goes back up. A sink answers with its own result.
			var respPayload []byte
			for _, e := range out {
				argB, _ := deps[edges[e].to].Fn.Sizes(opts.Arg)
				edges[e].sentAt = fp.Now()
				fp.Sleep(half) // serialize the downstream request
				if err := edges[e].req.send(fp, localos.Message{
					From: inst.rec.name, Kind: "req", Payload: payload(argB),
				}); err != nil {
					abort.fail(err)
					return
				}
			}
			for _, e := range out {
				resp, err := edges[e].resp.recv(fp, half) // then deserialize it
				if err != nil {
					abort.fail(err)
					return
				}
				respPayload = resp.Payload
			}
			if len(out) == 0 {
				_, resB := d.Fn.Sizes(opts.Arg)
				respPayload = payload(resB)
			}
			for e := in.lo; e < in.hi; e++ {
				fp.Sleep(half) // serialize the response
				if err := edges[e].resp.send(fp, localos.Message{
					From: inst.rec.name, Kind: "resp", Payload: respPayload,
				}); err != nil {
					abort.fail(err)
					return
				}
			}
		})
	}

	// Drive the graph from the gateway: send a request into each source and
	// collect the responses before each FPGA node, which the driver runs,
	// and at the end. On an abort the driver still waits for every stage to
	// exit, so no instance goes back or FIFO away while a stage uses it.
	abort := &w.abort
	start := p.Now()
	sent, got := 0, 0
	var err error
	for i := 0; i <= n && err == nil; i++ {
		if i < n && insts[i] != nil {
			if sent < w.sources && edges[sent].to == i {
				argB, _ := deps[i].Fn.Sizes(opts.Arg)
				edges[sent].sentAt = p.Now()
				err = edges[sent].req.send(p, localos.Message{From: "gateway", Kind: "req", Payload: payload(argB)})
				sent++
			}
			continue
		}
		for ; got < sent && err == nil; got++ {
			_, err = edges[got].resp.recv(p, noDispatch)
		}
		if i < n && err == nil {
			t := p.Now()
			err = runAccel(p, accel, i, deps[i], opts)
			execDur[i] = p.Now().Sub(t)
		}
	}
	if err != nil {
		abort.fail(err)
	}
	res := ChainResult{Total: p.Now().Sub(start)}
	done.Wait(p)
	if abort.err != nil {
		return ChainResult{}, abort.err
	}

	res.EdgeLatency = edgeLat[w.sources:]
	for _, d := range execDur {
		res.ExecTotal += d
	}
	for i, d := range deps {
		kind := hw.FPGA
		if insts[i] != nil {
			kind = insts[i].node.pu.Kind
		}
		pr, _ := d.ProfileFor(kind)
		rt.charge(d.rec, kind, execDur[i], pr.PricePerMs)
	}
	return res, nil
}

// stageWait is a stage's first wait (a sim.Step): its first request read
// (pipe.Step), then, when that read is the stage's only one and has
// settled with the dispatch half charged, its handler's run. The stage
// body starts once the handler is done, or where the read left off.
type stageWait struct {
	req   *pipe
	inst  *instance
	cost  time.Duration // the handler's CPU cost
	last  bool          // req is the stage's last request read
	ran   bool          // the wait ran the handler
	start sim.Time      // when the handler started, if the wait ran it
}

func (s *stageWait) Step(p *sim.Proc, val any) bool {
	if s.ran {
		return true // the handler is done
	}
	if !s.req.Step(p, val) {
		return false
	}
	if !s.last || s.req.owed {
		return true // the body reads on, or finishes the read itself
	}
	s.ran, s.start = true, p.Now()
	return p.SleepStep(s.inst.sb.Inst.StartHandler(s.cost, s.inst.sb.Forked))
}

// stageDispatch is the dispatch work that follows a stage's request read
// on edge e of its in-edges: the receiver's half of the hop, after the
// last one.
func stageDispatch(in span, e int, inst *instance) time.Duration {
	if e < in.hi-1 {
		return noDispatch
	}
	return scaledDispatch(inst.node.pu) / 2
}

// accelNode is an FPGA node's sandbox: its device and sandbox ID.
type accelNode struct {
	node *puNode
	id   string
}

// accelNodes resolves each function pinned to an FPGA to its one running
// sandbox, installing it on a miss; nil when no pin names an FPGA. A DAG
// takes no FPGA pin: fan-in and fan-out FPGA nodes are not modelled.
func (rt *Runtime) accelNodes(p *sim.Proc, names []string, pins []hw.PUID, dag bool) ([]accelNode, error) {
	var accel []accelNode
	for i, pin := range pins {
		if n := rt.nodes[pin]; n == nil || n.pu.Kind != hw.FPGA {
			continue
		}
		if dag {
			return nil, fmt.Errorf("molecule: DAG node %d pinned to FPGA %d; only a chain runs FPGA functions", i, pin)
		}
		if d := rt.deployment(names[i]); d == nil || !d.SupportsKind(hw.FPGA) {
			return nil, fmt.Errorf("molecule: %q pinned to FPGA %d is not deployed with an FPGA profile", names[i], pin)
		}
		n, id, err := rt.ensureAccel(p, hw.FPGA, names[i], nil)
		if err == nil && n.pu.ID != pin {
			err = fmt.Errorf("molecule: %q pinned to FPGA %d runs on FPGA %d", names[i], pin, n.pu.ID)
		}
		if err != nil {
			return nil, err
		}
		if accel == nil {
			accel = make([]accelNode, len(pins))
		}
		accel[i] = accelNode{node: n, id: id}
	}
	return accel, nil
}

// runAccel runs FPGA node i on the driver. Data stays in a retaining FPGA's
// DRAM between neighbours on it (§4.3) unless ForceCopy; the rest is DMA'd.
func runAccel(p *sim.Proc, accel []accelNode, i int, d *Deployment, opts ChainOptions) error {
	a := accel[i]
	retain := a.node.pu.Device.Retention() && !opts.ForceCopy
	iopts := sandbox.InvokeOptions{
		InputRetained: retain && i > 0 && accel[i-1].node == a.node,
		RetainOutput:  retain && i+1 < len(accel) && accel[i+1].node == a.node,
	}
	if iopts.InputRetained {
		if err := a.node.runf.MarkRetained(d.Fn.Name); err != nil {
			return err
		}
	}
	argB, resB := d.Fn.Sizes(opts.Arg)
	return a.node.runf.Invoke(p, a.id, argB, resB, d.Fn.FabricCost(opts.Arg), iopts)
}
