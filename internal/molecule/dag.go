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

// ChainOptions configure a function-chain (serverless DAG) invocation.
type ChainOptions struct {
	// Placement pins each function to a PU; nil applies the chain-affinity
	// policy (§5 "Profile selections"): the whole chain lands on the host.
	// Entries of -1 fall back to the host.
	Placement []hw.PUID
	// Arg parameterizes cost models.
	Arg workloads.Arg
}

// ChainResult reports a chain invocation's end-to-end outcome.
type ChainResult struct {
	Total time.Duration
	// EdgeLatency is the per-edge request latency: caller write start →
	// callee dispatch complete (what Fig 12 plots).
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
}

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

func (pp *pipe) recv(p *sim.Proc) (localos.Message, error) {
	if pp.local != nil {
		m, ok := pp.local.Read(p)
		if !ok {
			return localos.Message{}, errChainFIFOClosed
		}
		return m, nil
	}
	return pp.recvFD.Read(p)
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
type edge struct {
	req  pipe
	resp pipe
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

// chainWiring is one call's FIFO plumbing: a gateway process on the host
// and the edges from it through every stage. wireChain builds it and
// unwireChain releases it; the Runtime recycles the struct and its slices.
type chainWiring struct {
	gw endpoint
	// edges[0] connects the gateway to stage 0; edges[i] connects stage i
	// to its caller.
	edges   []edge
	abort   chainAbort
	execDur []time.Duration
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

// wireChain starts a gateway process and wires a duplex edge from it
// through every instance in order. It is all or nothing: on an error it
// releases what it built and returns no wiring; otherwise the caller hands
// the wiring back with unwireChain once no process uses its FIFOs.
func (rt *Runtime) wireChain(p *sim.Proc, insts []*instance) (*chainWiring, error) {
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
	if cap(w.edges) < len(insts) {
		w.edges = make([]edge, 0, len(insts))
	}
	caller := w.gw
	for _, inst := range insts {
		callee := instEndpoint(inst)
		w.edges = append(w.edges, edge{})
		if err := rt.buildEdge(p, &w.edges[len(w.edges)-1], caller, callee); err != nil {
			return nil, err
		}
		caller = callee
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
	*w = chainWiring{edges: w.edges[:0], execDur: w.execDur[:0]}
	rt.freeWirings = append(rt.freeWirings, w)
}

// buildEdge wires e as a duplex connection from caller to callee. The
// request FIFO is homed at the callee (its self_fifo); the response FIFO at
// the caller. On an error e holds what was built, for unwireChain.
func (rt *Runtime) buildEdge(p *sim.Proc, e *edge, caller, callee endpoint) error {
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

// chainMeta is the per-request metadata carried in FIFO messages.
type chainMeta struct {
	sentAt sim.Time
}

// InvokeChain runs a synchronous function chain over direct-connect
// IPC/nIPC: each function instance runs as its own process, blocked on its
// request FIFO; requests flow down the chain and the response propagates
// back up (Fig 12, Fig 14e).
func (rt *Runtime) InvokeChain(p *sim.Proc, names []string, opts ChainOptions) (ChainResult, error) {
	if len(names) == 0 {
		return ChainResult{}, fmt.Errorf("molecule: empty chain")
	}
	n := len(names)
	placement := opts.Placement
	if placement == nil {
		placement = make([]hw.PUID, n)
		for i := range placement {
			placement[i] = rt.hostID // chain affinity: co-locate the chain
		}
	}
	if len(placement) != n {
		return ChainResult{}, fmt.Errorf("molecule: placement length %d != chain length %d", len(placement), n)
	}

	insts, deps, cold, err := rt.acquireAll(p, names, placement, nil)
	if err != nil {
		return ChainResult{}, err
	}
	defer rt.releaseAll(p, insts)
	res := ChainResult{ColdStarts: cold}

	w, err := rt.wireChain(p, insts)
	if err != nil {
		return ChainResult{}, err
	}
	// Every stage has exited by the time this runs: InvokeChain waits for
	// them below on every path.
	defer rt.unwireChain(w)
	edges, abort := w.edges, &w.abort

	edgeLat := make([]time.Duration, n)
	w.execDur = append(w.execDur, make([]time.Duration, n)...)
	execDur := w.execDur

	// Spawn one process per instance.
	done := sim.NewWaitGroup(rt.Env)
	done.Add(n)
	for i := n - 1; i >= 0; i-- {
		i := i
		inst, d := insts[i], deps[i]
		in := &edges[i]
		var out *edge
		if i < n-1 {
			out = &edges[i+1]
		}
		rt.Env.Spawn("chain-"+inst.fn, func(fp *sim.Proc) {
			defer done.Done()
			// The language runtime's per-hop dispatch work splits between
			// the sender (serialize the event) and the receiver
			// (deserialize, schedule the handler), each on its own PU.
			half := scaledDispatch(inst.node.pu) / 2
			msg, err := in.req.recv(fp)
			if err != nil {
				abort.fail(err)
				return
			}
			fp.Sleep(half)
			if meta, ok := msg.Meta.(chainMeta); ok {
				edgeLat[i] = time.Duration(fp.Now() - meta.sentAt)
			}
			start := fp.Now()
			inst.sb.Inst.Invoke(fp, d.Fn.CPUCost(opts.Arg), inst.forked)
			execDur[i] = fp.Now().Sub(start)
			inst.node.busy += execDur[i]

			var respPayload []byte
			_, resB := d.Fn.Sizes(opts.Arg)
			if out != nil {
				nextArg, _ := deps[i+1].Fn.Sizes(opts.Arg)
				sentAt := fp.Now()
				fp.Sleep(half) // serialize the downstream request
				if err := out.req.send(fp, localos.Message{
					From: inst.fn, Kind: "req",
					Payload: payload(nextArg),
					Meta:    chainMeta{sentAt: sentAt},
				}); err != nil {
					abort.fail(err)
					return
				}
				resp, err := out.resp.recv(fp)
				if err != nil {
					abort.fail(err)
					return
				}
				fp.Sleep(half) // deserialize the downstream response
				respPayload = resp.Payload
			} else {
				respPayload = payload(resB)
			}
			fp.Sleep(half) // serialize the response
			if err := in.resp.send(fp, localos.Message{From: inst.fn, Kind: "resp", Payload: respPayload}); err != nil {
				abort.fail(err)
			}
		})
	}

	// Drive the request from the gateway and wait for the response. On an
	// abort the driver still waits for every stage to exit, so the deferred
	// release never hands back an instance a stage is still running on.
	argB, _ := deps[0].Fn.Sizes(opts.Arg)
	start := p.Now()
	err = edges[0].req.send(p, localos.Message{
		From: "gateway", Kind: "req",
		Payload: payload(argB),
		Meta:    chainMeta{sentAt: p.Now()},
	})
	if err == nil {
		_, err = edges[0].resp.recv(p)
	}
	if err != nil {
		abort.fail(err)
	}
	res.Total = p.Now().Sub(start)
	done.Wait(p)
	if abort.err != nil {
		return ChainResult{}, abort.err
	}

	res.EdgeLatency = edgeLat[1:] // drop the gateway edge
	for _, d := range execDur {
		res.ExecTotal += d
	}
	for i, d := range deps {
		pr, _ := d.ProfileFor(insts[i].node.pu.Kind)
		rt.bill.Record(d.Fn.Name, insts[i].node.pu.Kind, execDur[i], pr.PricePerMs)
	}
	return res, nil
}

// AccelChainOptions configure a host-driven accelerator chain.
type AccelChainOptions struct {
	Arg workloads.Arg
	// ForceCopy disables the DRAM-retention zero-copy path even when the
	// device supports it (the Fig 13 "Copying" series).
	ForceCopy bool
	// CPUFallback executes every stage on the CPU instead (comparison
	// series of Fig 14f/g/h).
	CPUFallback bool
}

// InvokeAccelChain runs a chain whose stages may live on accelerators. The
// host executor drives the pipeline; consecutive FPGA stages on the same
// device exchange data through retained DRAM banks (zero copy, §4.3)
// unless ForceCopy is set.
func (rt *Runtime) InvokeAccelChain(p *sim.Proc, names []string, opts AccelChainOptions) (ChainResult, error) {
	if len(names) == 0 {
		return ChainResult{}, fmt.Errorf("molecule: empty chain")
	}
	var res ChainResult
	start := p.Now()

	type stage struct {
		d    *Deployment
		fpga *puNode
		id   string
	}
	stages := make([]stage, len(names))
	for i, name := range names {
		d, err := rt.Deployment(name)
		if err != nil {
			return ChainResult{}, err
		}
		stages[i].d = d
		if !opts.CPUFallback && d.SupportsKind(hw.FPGA) {
			n, id, err := rt.ensureAccel(p, hw.FPGA, name, nil)
			if err != nil {
				return ChainResult{}, err
			}
			stages[i].fpga, stages[i].id = n, id
		}
	}

	for i, st := range stages {
		execStart := p.Now()
		if st.fpga != nil {
			prevFPGA := i > 0 && stages[i-1].fpga == st.fpga
			nextFPGA := i < len(stages)-1 && stages[i+1].fpga == st.fpga
			retention := st.fpga.pu.Device.Retention() && !opts.ForceCopy
			argB, resB := st.d.Fn.Sizes(opts.Arg)
			iopts := sandbox.InvokeOptions{
				InputRetained: prevFPGA && retention,
				RetainOutput:  nextFPGA && retention,
			}
			if iopts.InputRetained {
				if err := st.fpga.runf.MarkRetained(st.d.Fn.Name); err != nil {
					return ChainResult{}, err
				}
			}
			if err := st.fpga.runf.Invoke(p, st.id, argB, resB, st.d.Fn.FabricCost(opts.Arg), iopts); err != nil {
				return ChainResult{}, err
			}
		} else {
			// General-purpose stage on the host: warm instance + dispatch.
			inst, cold, err := rt.acquire(p, st.d, rt.hostID, false, nil)
			if err != nil {
				return ChainResult{}, err
			}
			if cold {
				res.ColdStarts++
			}
			p.Sleep(scaledDispatch(inst.node.pu))
			inst.sb.Inst.Invoke(p, st.d.Fn.CPUCost(opts.Arg), inst.forked)
			rt.release(p, inst)
		}
		d := p.Now().Sub(execStart)
		res.ExecTotal += d
		res.EdgeLatency = append(res.EdgeLatency, d)
	}
	res.Total = p.Now().Sub(start)
	return res, nil
}
