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

// edge is the full-duplex direct connection between a caller and callee
// (§4.3 "direct connect": a pair of FIFOs, no intermediate bus or engine).
type edge struct {
	req  *pipe
	resp *pipe
}

// chainAbort tears a chain down on its first error. A stage (or the
// driver) whose FIFO operation fails records the error and closes every
// pipe of the chain, so each process parked on a read or a full write wakes
// and exits instead of waiting for a peer that will never answer.
type chainAbort struct {
	err   error
	edges []*edge
}

func (a *chainAbort) fail(err error) {
	if a.err != nil {
		return
	}
	a.err = err
	for _, e := range a.edges {
		e.req.close()
		e.resp.close()
	}
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

// buildEdge wires a duplex connection from caller to callee. The request
// FIFO is homed at the callee (its self_fifo); the response FIFO at the
// caller.
func (rt *Runtime) buildEdge(p *sim.Proc, caller, callee endpoint) (*edge, error) {
	if caller.node.pu.ID == callee.node.pu.ID {
		os := caller.node.os
		req := os.CreateFIFO(rt.nextFIFO("req"), 4)
		resp := os.CreateFIFO(rt.nextFIFO("resp"), 4)
		return &edge{req: &pipe{local: req}, resp: &pipe{local: resp}}, nil
	}
	callerX := caller.node.node.Register(caller.proc)
	calleeX := callee.node.node.Register(callee.proc)

	mk := func(home endpoint, homeX, peerX xpu.XPID, peerNode *xpu.Node, name string) (*pipe, error) {
		uuid := rt.nextFIFO(name)
		homeFD, err := home.node.node.FIFOInit(p, homeX, uuid, 4)
		if err != nil {
			return nil, err
		}
		obj := xpu.ObjID{Kind: "fifo", UUID: uuid}
		if err := home.node.node.GrantCap(p, homeX, peerX, obj, xpu.PermRead|xpu.PermWrite); err != nil {
			return nil, err
		}
		peerFD, err := peerNode.FIFOConnect(p, peerX, uuid)
		if err != nil {
			return nil, err
		}
		return &pipe{sendFD: peerFD, recvFD: homeFD}, nil
	}
	req, err := mk(callee, calleeX, callerX, caller.node.node, "req")
	if err != nil {
		return nil, err
	}
	resp, err := mk(caller, callerX, calleeX, callee.node.node, "resp")
	if err != nil {
		return nil, err
	}
	// In the response pipe the callee sends and the caller receives.
	return &edge{req: req, resp: resp}, nil
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

	// Wire the gateway edge (edges[0]) plus one edge per chain hop: edges[i]
	// connects stage i to its caller.
	hostNode := rt.nodes[rt.hostID]
	caller := endpoint{node: hostNode, proc: hostNode.os.NewDetachedProcess("gateway")}
	edges := make([]*edge, n)
	for i, inst := range insts {
		callee := instEndpoint(inst)
		e, err := rt.buildEdge(p, caller, callee)
		if err != nil {
			return ChainResult{}, err
		}
		edges[i] = e
		caller = callee
	}
	abort := &chainAbort{edges: edges}

	edgeLat := make([]time.Duration, n)
	execDur := make([]time.Duration, n)

	// Spawn one process per instance.
	done := sim.NewWaitGroup(rt.Env)
	done.Add(n)
	for i := n - 1; i >= 0; i-- {
		i := i
		inst, d := insts[i], deps[i]
		in := edges[i]
		var out *edge
		if i < n-1 {
			out = edges[i+1]
		}
		rt.Env.Spawn(fmt.Sprintf("chain-%s", inst.fn), func(fp *sim.Proc) {
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
					Payload: make([]byte, nextArg),
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
				respPayload = make([]byte, resB)
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
		Payload: make([]byte, argB),
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
			n, id, err := rt.fpgaSandboxFor(name)
			if err != nil {
				if err := rt.extendFPGAImages(p, name); err != nil {
					return ChainResult{}, err
				}
				if n, id, err = rt.fpgaSandboxFor(name); err != nil {
					return ChainResult{}, err
				}
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
