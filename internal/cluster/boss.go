// Package cluster implements the platform layer above single machines: the
// paper's global manager (Fig 6) as a boss/worker control plane. Users
// register functions with their profiles once; the boss routes each request
// to a worker machine that has at least one of the required PU kinds
// (§4.1), and the machine deploys the function on its first request there.
//
// A Boss owns N simulated machines, each a full heterogeneous computer —
// its own hw.Machine, XPU shim, and Molecule runtime — living on its own
// sim.Sharded event domain, connected by a hw.Interconnect. Domain 0 is
// the boss itself: clients, routing state, and the admission queue live
// there, and every boss↔machine interaction is an interconnect message
// that pays the cross-machine link's latency. Because the interconnect is
// the only cross-domain edge, the whole cluster runs under the
// conservative windowed driver, with the link's base latency as the
// lookahead.
//
// Routing:
//   - warm-instance affinity: a rendezvous hash over the live eligible
//     machines gives every function a stable home, so repeat invocations
//     land where their warm instances are;
//   - work stealing: when the home machine is saturated, the request is
//     stolen by the least-loaded eligible machine with headroom instead of
//     erroring;
//   - central queue: when every eligible machine is saturated, requests
//     queue FIFO at the boss and drain as completions free slots;
//   - chains: run whole on one machine that has a PU kind for every
//     function, since their speed is nIPC inside the machine (µs-scale
//     PCIe links against the interconnect's ms-scale base latency). Every
//     machine is built from one hw.Config, so a chain no machine can run
//     whole has a function no machine can run, and the boss rejects it.
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Message sizes for boss↔machine interconnect traffic: a request envelope
// and a reply envelope.
const (
	requestBytes = 1 << 10
	replyBytes   = 1 << 9
)

// kindMask is a bitset of hw.PUKind values, precomputed once per machine and
// once per registration so routing tests eligibility with a single AND.
type kindMask uint32

func maskOf(kinds ...hw.PUKind) kindMask {
	var m kindMask
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

func (m kindMask) has(k hw.PUKind) bool { return m&(1<<uint(k)) != 0 }

// filter returns the profiles whose PU kind is in the mask.
func (m kindMask) filter(profiles []molecule.Profile) []molecule.Profile {
	var out []molecule.Profile
	for _, pr := range profiles {
		if m.has(pr.Kind) {
			out = append(out, pr)
		}
	}
	return out
}

// machineKinds returns the bitset of PU kinds present on a machine.
func machineKinds(m *hw.Machine) kindMask {
	var mask kindMask
	for _, pu := range m.PUs() {
		mask |= 1 << uint(pu.Kind)
	}
	return mask
}

// registration is a function registered with the boss: the union of its
// profiles' PU kinds, and its rendezvous score on every machine, computed
// at Register (the machine list is fixed by NewBoss), so routing hashes no
// name.
type registration struct {
	mask   kindMask
	scores []uint64 // scores[i]: rendezvous score on b.nodes[i]
}

// errClusterSaturated reports requests that found no capacity and nothing
// inflight to wait for: every eligible machine's capacity is zero. It wraps
// molecule.ErrUnavailable so callers above (httpd) can map it to 503
// without reaching into this package.
var errClusterSaturated = fmt.Errorf("cluster: saturated with nothing inflight: %w", molecule.ErrUnavailable)

// machineDown is a routing error, with the text of the error it holds, that
// errors.Is matches to molecule.ErrUnavailable (see errNoMachine).
type machineDown struct{ error }

func (machineDown) Is(target error) bool { return target == molecule.ErrUnavailable }

// Node is one worker machine of a Boss cluster: a shard domain owning its
// own hardware and Molecule runtime. Boss-side fields (inflight, draining,
// down, counters) are only touched from domain 0; machine-side fields
// (deployed, deploying) only from the node's own domain.
type Node struct {
	Domain int // shard domain index (boss is domain 0)
	Env    *sim.Env
	HW     *hw.Machine
	RT     *molecule.Runtime

	kinds    kindMask
	capacity int // boot-time snapshot of RT.Capacity()

	// Boss-side scheduling state.
	inflight int
	draining bool
	down     bool
	served   int // requests completed here
	stolen   int // requests that landed here via work stealing

	// Machine-side deployment state.
	regs      map[string][]molecule.Profile // kind-filtered, written before Run
	deployed  map[string]bool
	deploying map[string]*sim.WaitGroup

	// Machine-side admission state (an epoch queue local to this machine):
	// a segment that hits ErrNoCapacity waits here (awaitLocal, a stepped
	// wait) and retries when a local completion frees an instance slot,
	// instead of bouncing back to the boss, which saves the cross-machine
	// round trip. It is not FIFO: every attempt, failed ones included,
	// wakes all waiting segments, and those that see no epoch advance
	// re-park behind the one that failed. A saturated machine pays that
	// herd of spurious wake-ups in events (ROADMAP), but each costs a
	// stepped resume on the host, not a coroutine switch.
	active int                 // local execs inside an RT call
	epoch  int                 // bumped on every successful completion
	waitq  *sim.Chan[struct{}] // rendezvous the parked local requests wait on
}

// ID returns the node's worker index (0-based; domain minus one).
func (n *Node) ID() int { return n.Domain - 1 }

// Inflight reports requests dispatched to the node but not yet completed.
func (n *Node) Inflight() int { return n.inflight }

// Served reports requests completed by the node.
func (n *Node) Served() int { return n.served }

// Stolen reports requests that landed here via work stealing.
func (n *Node) Stolen() int { return n.stolen }

// Down reports whether the boss has marked the node failed.
func (n *Node) Down() bool { return n.down }

// Draining reports whether the node is administratively excluded from
// routing (Drain without a failure).
func (n *Node) Draining() bool { return n.draining }

// Capacity reports the node's boot-time instance-slot snapshot — the
// boss's admission window.
func (n *Node) Capacity() int { return n.capacity }

// hasRoom is the boss's admission window for a node: requests dispatched
// but not completed, against the boot-time capacity snapshot. The boss
// never reads the machine's runtime state during a run (it lives in
// another domain); inflight-vs-capacity is its entire load model.
func (n *Node) hasRoom() bool { return n.capacity > 0 && n.inflight < n.capacity }

// BossConfig sizes a cluster.
type BossConfig struct {
	// Machines is the worker machine count (≥1).
	Machines int
	// HW configures every machine (a homogeneous fleet).
	HW hw.Config
	// Opts configures every machine's Molecule runtime.
	Opts molecule.Options
	// Capacity, when positive, overrides every general-purpose PU's
	// instance capacity — the scaled-down-cluster knob for experiments
	// that need saturation without millions of requests.
	Capacity int
}

// reply carries a completed request's outcome back to the submitting
// client process.
type reply struct {
	res     molecule.Result
	cres    molecule.ChainResult
	machine int
	err     error
}

// request is one unit of routed work, a single function or a whole chain,
// run as one segment on one machine. It travels with its interconnect
// messages, so one domain at a time touches it. Requests are
// recycled through the Boss's free list: the reply channel and the three
// callbacks are made once per request object, not once per call, and so is
// the state of the request's stepped waits: the client's round trip, a
// single function's segment process with its runtime invoke, and the wait
// on a machine's admission queue.
type request struct {
	boss  *Boss
	names []string               // functions in call order
	chain bool                   // InvokeChain: the reply carries a ChainResult
	opts  molecule.InvokeOptions // a chain reads only Arg
	node  *Node                  // the machine the request is dispatched to

	// The result, filled in on the machine, and the error it replies with.
	// The message carrying the request owns these fields.
	res  molecule.Result
	cres molecule.ChainResult
	err  error

	attempts int // failover budget: distinct placements tried
	requeues int // capacity-requeue budget (see maxRequeues)
	done     *sim.Chan[reply]

	// Callbacks bound once per request object, so a request's hops
	// allocate no closures.
	execMsg  func()          // delivered on the request's machine: start it
	body     func(*sim.Proc) // the segment process's body
	replyMsg func()          // delivered on the boss: complete the request

	// Backing array of a single function's names, so routing it allocates
	// nothing beyond the request.
	one [1]string
	// reg is a single function's registration, resolved on its first
	// route, so a re-route from the central queue looks nothing up.
	reg *registration

	// The client's round trip (request.Step): how far it has got, and the
	// reply it carries back to the client.
	trip tripPhase
	rep  reply
	// A single function's segment process (segment.Step): how far it has
	// got, and the runtime invoke it is making.
	segAt segPhase
	inv   molecule.Invocation
	// The segment's wait on its machine's admission queue, if any.
	admit admission
}

// tripPhase is how far a client's round trip (request.Step) has got.
type tripPhase uint8

const (
	tripIn     tripPhase = iota // the client → boss hop
	tripSubmit                  // route and dispatch, or queue
	tripReply                   // waiting for the reply
	tripOut                     // the boss → client hop
)

// maxFreeRequests caps the Boss's request free list. Open-loop traffic
// starts most requests with far fewer in flight than it reaches in a
// burst (EXPERIMENTS.md: cluster-steady starts 97% of its requests with
// fewer than 128 in flight and peaks at 612). Requests released beyond
// the cap are left for the GC rather than held for the rest of the run.
const maxFreeRequests = 128

// maxRequeues bounds how often one request may bounce dispatch → machine
// ErrNoCapacity → central queue. Machine-level eviction makes capacity
// rejections transient, so real traffic requeues at most a handful of
// times; the bound is the deterministic backstop that turns any residual
// pathological cycle into a visible error instead of a livelock.
const maxRequeues = 64

// Boss is the cluster-scale global manager: it owns the sharded group, the
// interconnect, and N worker machines, and routes every request from
// domain 0.
type Boss struct {
	Sharded  *sim.Sharded
	IC       *hw.Interconnect
	Env      *sim.Env // domain 0: boss + clients
	Registry *workloads.Registry

	nodes    []*Node
	funcs    map[string]*registration
	inflight int

	queue      []*request // central FIFO: every eligible machine saturated
	queuedPeak int
	stolen     int

	free []*request // released requests for reuse; domain 0 only
}

// NewBoss builds a cluster of cfg.Machines worker machines, boots every
// machine's runtime (running the group to quiescence once), and snapshots
// each machine's capacity and PU kinds into the boss's routing state.
func NewBoss(cfg BossConfig) (*Boss, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("cluster: boss needs at least 1 machine, got %d", cfg.Machines)
	}
	sh := sim.NewSharded(cfg.Machines + 1)
	b := &Boss{
		Sharded:  sh,
		IC:       hw.NewInterconnect(sh, hw.Link{Kind: hw.LinkNetwork, BaseLat: params.NetworkBaseLatency, Bandwith: params.NetworkBandwidth}),
		Env:      sh.Domain(0),
		Registry: workloads.NewRegistry(),
		funcs:    make(map[string]*registration),
	}
	bootErrs := make([]error, cfg.Machines)
	for i := 0; i < cfg.Machines; i++ {
		env := sh.Domain(i + 1)
		n := &Node{
			Domain:    i + 1,
			Env:       env,
			regs:      make(map[string][]molecule.Profile),
			deployed:  make(map[string]bool),
			deploying: make(map[string]*sim.WaitGroup),
			waitq:     sim.NewChan[struct{}](env, 0),
		}
		b.nodes = append(b.nodes, n)
		idx := i
		n.Env.Spawn("boot", func(p *sim.Proc) {
			n.HW = hw.Build(n.Env, cfg.HW)
			rt, err := molecule.New(p, n.HW, workloads.NewRegistry(), cfg.Opts)
			if err != nil {
				bootErrs[idx] = err
				return
			}
			n.RT = rt
			if cfg.Capacity > 0 {
				for _, pu := range n.HW.PUs() {
					if pu.Kind.GeneralPurpose() {
						rt.SetCapacity(pu.ID, cfg.Capacity)
					}
				}
			}
		})
	}
	sh.Run() // boot to quiescence
	for i, n := range b.nodes {
		if bootErrs[i] != nil {
			return nil, fmt.Errorf("cluster: machine %d boot: %w", i, bootErrs[i])
		}
		n.kinds = machineKinds(n.HW)
		n.capacity = n.RT.Capacity()
	}
	return b, nil
}

// Nodes returns the cluster's worker machines.
func (b *Boss) Nodes() []*Node { return b.nodes }

// Inflight reports requests inside the cluster (dispatched or queued but
// not yet replied). Zero when quiescent.
func (b *Boss) Inflight() int { return b.inflight + len(b.queue) }

// Queued reports requests parked in the central queue right now.
func (b *Boss) Queued() int { return len(b.queue) }

// QueuedPeak reports the central queue's high-water mark.
func (b *Boss) QueuedPeak() int { return b.queuedPeak }

// Stolen reports requests that were routed away from their affinity home
// because it was saturated.
func (b *Boss) Stolen() int { return b.stolen }

// Run drives the whole cluster to quiescence and returns the final virtual
// time. The argument is ignored: the windowed driver runs on the calling
// goroutine. It remains so existing callers keep compiling.
func (b *Boss) Run(int) sim.Time {
	return b.Sharded.Run()
}

// Register records a function with the boss and pushes its kind-filtered
// profile list to every machine. Call before Run — registrations are
// setup-time state shared with the machine domains.
func (b *Boss) Register(funcName string, profiles ...molecule.Profile) error {
	if _, err := b.Registry.Get(funcName); err != nil {
		return err
	}
	if len(profiles) == 0 {
		profiles = []molecule.Profile{molecule.DefaultProfile(hw.CPU)}
	}
	var mask kindMask
	for _, pr := range profiles {
		mask |= maskOf(pr.Kind)
	}
	r := &registration{mask: mask, scores: make([]uint64, len(b.nodes))}
	b.funcs[funcName] = r
	for i, n := range b.nodes {
		r.scores[i] = rendezvous(funcName, n.Domain)
		if local := n.kinds.filter(profiles); len(local) > 0 {
			n.regs[funcName] = local
		}
	}
	return nil
}

// Drain excludes a machine from routing.
func (b *Boss) Drain(worker int) error { return b.mark(worker, func(n *Node) { n.draining = true }) }

// Undrain re-admits a drained machine to routing.
func (b *Boss) Undrain(worker int) error { return b.mark(worker, func(n *Node) { n.draining = false }) }

// mark applies an operator change to one machine's routing state, then
// pumps the central queue, since the eligible set changed.
func (b *Boss) mark(worker int, change func(n *Node)) error {
	if worker < 0 || worker >= len(b.nodes) {
		return fmt.Errorf("cluster: no machine %d", worker)
	}
	change(b.nodes[worker])
	b.pump()
	return nil
}

// rendezvous scores (fn, node) with a 64-bit FNV-1a hash: every function
// gets a stable, deterministic preference order over machines, so repeat
// invocations land on their warm instances (highest-random-weight
// hashing). Seeded data only — no global randomness — so the detrand
// invariant holds.
func rendezvous(fn string, domain int) uint64 {
	h := sim.FNVBytes(sim.FNVOffset, fn)
	return sim.FNVMix(sim.FNVMix(h, uint64(byte(domain))), uint64(byte(domain>>8)))
}

func errNotRegistered(fn string) error {
	return fmt.Errorf("cluster: function %q not registered", fn)
}

// eligibleFor reports whether the node can run fn's registration at all.
func (b *Boss) eligibleFor(n *Node, mask kindMask) bool {
	return !n.draining && !n.down && n.kinds&mask != 0
}

// routeOne picks the node for a single-function request for fn, whose
// registration is r: affinity home if it has room; else steal to the
// least-loaded eligible node with room; else nil (caller queues). The error
// is non-nil only when no live eligible node exists at all.
func (b *Boss) routeOne(r *registration, fn string) (*Node, bool, error) {
	var home *Node
	var homeScore uint64
	var spill *Node
	spillLoad := 0.0
	any := false
	for i, n := range b.nodes {
		if !b.eligibleFor(n, r.mask) {
			continue
		}
		any = true
		if s := r.scores[i]; home == nil || s > homeScore {
			home, homeScore = n, s
		}
		if !n.hasRoom() {
			continue
		}
		l := float64(n.inflight) / float64(n.capacity)
		if spill == nil || l < spillLoad {
			spill, spillLoad = n, l
		}
	}
	if !any {
		return nil, false, b.errNoMachine("cluster: no eligible machine for %q", []string{fn}, []kindMask{r.mask})
	}
	if home != nil && home.hasRoom() {
		return home, false, nil
	}
	if spill != nil {
		return spill, true, nil // work stealing: home saturated
	}
	return nil, false, nil // all saturated: queue
}

// planChain places a chain whole on the machine wholeChainHome picks: the
// interconnect's base latency is ~10³× the intra-machine links, so a chain
// keeps every edge inside one machine.
func (b *Boss) planChain(names []string) (*Node, error) {
	masks := make([]kindMask, len(names))
	var first *registration
	for i, fn := range names {
		r, ok := b.funcs[fn]
		if !ok {
			return nil, errNotRegistered(fn)
		}
		if i == 0 {
			first = r
		}
		masks[i] = r.mask
	}
	if n := b.wholeChainHome(first, masks); n != nil {
		return n, nil
	}
	return nil, b.errNoMachine("cluster: no machine can run %q", names, masks)
}

// wholeChainHome returns the machine eligible for every chain function
// that the first function's registration prefers by rendezvous score,
// preferring machines with room, or nil.
func (b *Boss) wholeChainHome(first *registration, masks []kindMask) *Node {
	var home, fallback *Node
	var homeScore, fbScore uint64
	for i, n := range b.nodes {
		if n.draining || n.down || n.reach(masks) < len(masks) {
			continue
		}
		s := first.scores[i]
		if fallback == nil || s > fbScore {
			fallback, fbScore = n, s
		}
		if !n.hasRoom() {
			continue
		}
		if home == nil || s > homeScore {
			home, homeScore = n, s
		}
	}
	if home != nil {
		return home
	}
	return fallback // saturated everywhere: its admission queue absorbs the chain
}

// reach reports how many of masks, from the first, the node has a PU kind
// for.
func (n *Node) reach(masks []kindMask) int {
	for i, m := range masks {
		if n.kinds&m == 0 {
			return i
		}
	}
	return len(masks)
}

// errNoMachine explains why no live machine can run the functions names,
// whose kind masks are masks: it names the first function at which no live
// machine can run them so far. When a down or drained machine could run
// them all, the fault is the platform's (httpd answers 503), so the error
// also matches molecule.ErrUnavailable; its text is format's either way.
func (b *Boss) errNoMachine(format string, names []string, masks []kindMask) error {
	reach, down := 0, false
	for _, n := range b.nodes {
		k := n.reach(masks)
		if n.draining || n.down {
			down = down || k == len(masks)
		} else if k > reach {
			reach = k
		}
	}
	err := fmt.Errorf(format, names[reach])
	if down {
		return machineDown{err}
	}
	return err
}

// Invoke submits one request from a client process on the boss domain and
// blocks until its reply. It satisfies loadgen.Invoker, so the same
// traffic model drives a single runtime or the whole cluster.
func (b *Boss) Invoke(p *sim.Proc, funcName string, opts molecule.InvokeOptions) (molecule.Result, error) {
	res, _, err := b.InvokeDetailed(p, funcName, opts)
	return res, err
}

// InvokeDetailed is Invoke plus the worker index that served the request.
//
//molecule:hotpath
func (b *Boss) InvokeDetailed(p *sim.Proc, funcName string, opts molecule.InvokeOptions) (molecule.Result, int, error) {
	req := b.newRequest()
	req.opts, req.one[0] = opts, funcName
	req.names = req.one[:]
	rep := b.call(p, req)
	return rep.res, rep.machine, rep.err
}

// InvokeChain submits a chain, run whole on one machine that can run every
// function. Satisfies loadgen.Invoker. opts.Arg reaches the machine;
// opts.Placement must be nil, because PU IDs are machine-local and the boss
// places chains itself.
func (b *Boss) InvokeChain(p *sim.Proc, names []string, opts molecule.ChainOptions) (molecule.ChainResult, error) {
	if len(names) == 0 {
		return molecule.ChainResult{}, fmt.Errorf("cluster: empty chain")
	}
	if opts.Placement != nil {
		return molecule.ChainResult{}, fmt.Errorf("cluster: chain placement is chosen by the boss; ChainOptions.Placement must be nil")
	}
	req := b.newRequest()
	req.names, req.chain, req.opts = names, true, molecule.InvokeOptions{Arg: opts.Arg}
	rep := b.call(p, req)
	return rep.cres, rep.err
}

// newRequest takes a request from the free list, or makes one with its
// reply channel and callbacks bound. Boss domain only.
func (b *Boss) newRequest() *request {
	if n := len(b.free); n > 0 {
		req := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		return req
	}
	req := &request{boss: b, done: sim.NewChan[reply](b.Env, 1)}
	req.execMsg, req.body, req.replyMsg = req.startSegment, req.runSegment, req.completeOnBoss
	return req
}

// release clears a finished request and returns it to the free list. Only
// call sees a request finish, so nothing else may hold it: the reply it
// carried has been received and the return hop paid, and a request that
// failed over or requeued is still in flight and never reaches here. The
// result fields are zeroed, so the free list keeps no reference to the
// EdgeLatency array a returned chain handed its client.
func (b *Boss) release(req *request) {
	req.done.Reset(1)
	*req = request{boss: b, done: req.done, execMsg: req.execMsg, body: req.body, replyMsg: req.replyMsg}
	if len(b.free) < maxFreeRequests {
		b.free = append(b.free, req)
	}
}

// call carries a request from a client process on the boss domain through
// the cluster and back, and releases it. The whole round trip is one
// stepped wait (request.Step), so the client takes one coroutine switch, at
// its end. Nothing can end a client's wait early (the kernel has no
// interrupt), so the request is released only here, after its reply.
//
//molecule:hotpath
func (b *Boss) call(p *sim.Proc, req *request) reply {
	p.Wait(req)
	rep := req.rep
	b.release(req)
	return rep
}

// Step is the client's round trip, a sim.Step: the client → boss network
// hop, submit (in scheduler context, as complete submits), the wait for
// the reply, and the boss → client hop. A request that submit rejects at
// once pays the return hop like every other error.
//
//molecule:hotpath
func (req *request) Step(p *sim.Proc, val any) bool {
	switch req.trip {
	case tripIn:
		req.trip = tripSubmit
		if !p.SleepStep(params.NetworkBaseLatency) {
			return false
		}
		fallthrough
	case tripSubmit:
		if err := req.boss.submit(req); err != nil {
			req.rep = reply{machine: -1, err: err}
			break
		}
		req.trip = tripReply
		if _, got := req.done.RecvStep(p, &req.rep); !got {
			return false
		}
	case tripReply:
		req.done.Handed(val, &req.rep)
	case tripOut:
		return true // the return hop is over
	}
	req.trip = tripOut
	return p.SleepStep(params.NetworkBaseLatency)
}

// submit routes a request and dispatches it, or queues it when every
// eligible machine is saturated. Boss-domain only. A non-nil error means
// the request can never run (unregistered, or no live machine has the
// kinds). A chain is never queued here: planChain falls back to a
// saturated home, whose admission queue absorbs it.
func (b *Boss) submit(req *request) error {
	n, stolen, err := b.route(req)
	if err != nil {
		return err
	}
	if n == nil {
		b.enqueue(req)
		// A queue pumped only by completions strands the request when
		// nothing is inflight (zero-capacity cluster): pump now so the
		// saturated-idle case fails deterministically instead of parking
		// the client until quiescence.
		b.pump()
		return nil
	}
	b.dispatch(req, n, stolen)
	return nil
}

// route picks a request's machine: routeOne's for a single function, nil
// when every eligible machine is saturated, and planChain's for a chain.
// stolen reports a single function routed away from its saturated home.
func (b *Boss) route(req *request) (*Node, bool, error) {
	if req.chain {
		n, err := b.planChain(req.names)
		return n, false, err
	}
	if req.reg == nil {
		r, ok := b.funcs[req.names[0]]
		if !ok {
			return nil, false, errNotRegistered(req.names[0])
		}
		req.reg = r
	}
	return b.routeOne(req.reg, req.names[0])
}

func (b *Boss) enqueue(req *request) {
	b.queue = append(b.queue, req)
	if len(b.queue) > b.queuedPeak {
		b.queuedPeak = len(b.queue)
	}
}

// dispatch charges the machine's inflight window, one slot per function,
// and sends the request to it; the machine replies to the boss when the
// request finishes. stolen marks a request routed away from its saturated
// home.
//
//molecule:hotpath
func (b *Boss) dispatch(req *request, n *Node, stolen bool) {
	req.node = n
	if stolen {
		n.stolen++
		b.stolen++
	}
	n.inflight += len(req.names)
	b.inflight += len(req.names)
	//lint:owned request handoff: req travels with the message and is next touched only by its machine; the boss touches it again only in the reply it receives on its own domain
	b.IC.Send(b.Env, n.Domain, requestBytes, req.execMsg)
}

// startSegment runs on req.node's domain when the request message arrives
// there: it starts the segment's process. A chain's runs its body; a single
// function's starts parked in its stepped wait (segment.Step), which takes
// a coroutine only for what blocks.
//
//molecule:hotpath
func (req *request) startSegment() {
	env := req.node.Env
	if req.chain {
		env.Spawn("segment", req.body)
		return
	}
	req.segAt = segAttempt
	env.SpawnWaiting("segment", (*segment)(req), req.body)
}

// runSegment is the segment process's body: run the request on its machine
// and reply to the boss.
//
//molecule:hotpath
func (req *request) runSegment(wp *sim.Proc) {
	req.reply(req.node.run(wp, req))
}

// reply sends the request's outcome from its machine to the boss.
func (req *request) reply(err error) {
	req.err = err
	//lint:owned reply to the boss: req is dead on the sending machine after this send; the boss consumes it on delivery in its own domain
	req.boss.IC.Send(req.node.Env, 0, replyBytes, req.replyMsg)
}

// segment is a single function's request seen as its segment process's
// stepped wait, a sim.Step: the request holds the step's state, so the
// step allocates nothing.
type segment request

// segPhase is how far a single function's segment step has got.
type segPhase uint8

const (
	segAttempt segPhase = iota // begin an attempt on the machine's runtime
	segBuild                   // the attempt placed a cold start: the body builds it
	segRun                     // the attempt's invoke runs
	segAdmit                   // the attempt missed capacity: wait on admission
)

// Step runs a single function's segment as run and runSegment would, with
// the runtime invoke as a molecule.Invocation. It ends the process in its
// wait, with the reply sent, unless something must block: a first deploy
// on the machine, a cold build, an accelerator invoke or a runtime that
// retries. Then it reports the wait over with the process's body left to
// start, and the body carries on where the step stopped.
//
//molecule:hotpath
func (s *segment) Step(wp *sim.Proc, val any) bool {
	req := (*request)(s)
	n := req.node
	for {
		switch req.segAt {
		case segAttempt:
			fn := req.names[0]
			if !n.deployed[fn] || !req.inv.Begin(n.RT, wp, fn, req.opts) {
				return true // the body deploys, or invokes through RT.Invoke
			}
			n.active++
			if req.inv.NeedsBuild() {
				req.segAt = segBuild
				return true
			}
			req.segAt, val = segRun, nil
		case segRun:
			if !req.inv.Step(wp, val) {
				return false
			}
			var err error
			req.res, err = req.inv.Result()
			if !n.attempted(err) {
				return s.end(wp, err)
			}
			req.err = err
			req.admit = admission{node: n, seen: n.epoch}
			req.segAt, val = segAdmit, nil
		case segAdmit:
			if !req.admit.Step(wp, val) {
				return false
			}
			if !req.admit.ok {
				return s.end(wp, req.err)
			}
			req.segAt, val = segAttempt, nil
		}
	}
}

// end replies to the boss and ends the segment's process in its wait.
func (s *segment) end(wp *sim.Proc, err error) bool {
	(*request)(s).reply(err)
	wp.EndInWait()
	return true
}

// completeOnBoss runs on the boss domain when the request's reply arrives.
func (req *request) completeOnBoss() { req.boss.complete(req) }

// wakeLocal releases every parked request, oldest first, to re-check
// admission.
func (n *Node) wakeLocal() {
	for n.waitq.TrySend(struct{}{}) {
	}
}

// awaitLocal parks the segment until a local completion advances the
// epoch. It reports false — give up — when nothing else is running on the
// machine, so no completion can ever free a slot. The wait is the stepped
// wait a (admission.Step), so a wake-up that only leads to a re-check
// costs no coroutine switch.
func (n *Node) awaitLocal(wp *sim.Proc, a *admission) bool {
	*a = admission{node: n, seen: n.epoch}
	wp.Wait(a)
	return a.ok
}

// admission is a segment's wait on its machine's admission queue, a
// sim.Step: the epoch it started at, and whether the wait ended in an epoch
// advance (ok) or a give-up.
type admission struct {
	node *Node
	seen int
	ok   bool
}

// Step re-checks admission on every wake-up. Woken without an epoch
// advance, the segment re-parks (wake-all is only an invitation to
// re-check); with nothing left running it gives up, cascading the wake so
// other parked segments also notice.
//
//molecule:hotpath
func (a *admission) Step(wp *sim.Proc, val any) bool {
	n := a.node
	var tok struct{}
	if val != nil {
		n.waitq.Handed(val, &tok)
	}
	for n.epoch == a.seen {
		if n.active == 0 {
			n.wakeLocal()
			return true
		}
		if _, got := n.waitq.RecvStep(wp, &tok); !got {
			return false
		}
	}
	a.ok = true
	return true
}

// run executes the request on the node: machine-side deploy-on-first-use
// of each function (deduplicated across concurrent requests), then the
// local runtime, parking on the machine's admission queue while it is at
// capacity. Each attempt counts as an active exec (see attempted). A
// single function's segment step that placed a cold start has begun the
// first attempt; run finishes it, building the instance.
func (n *Node) run(wp *sim.Proc, req *request) error {
	begun := req.segAt == segBuild
	if !begun {
		for _, fn := range req.names {
			if err := n.ensureDeployedLocal(wp, fn); err != nil {
				return err
			}
		}
	}
	for {
		var err error
		if begun {
			begun, req.segAt = false, segAttempt
			req.inv.Finish(wp)
			req.res, err = req.inv.Result()
		} else {
			n.active++
			err = n.attempt(wp, req)
		}
		if !n.attempted(err) || !n.awaitLocal(wp, &req.admit) {
			return err
		}
	}
}

// attempted ends an active exec that finished with err: it bumps the epoch
// on success and wakes parked requests (success frees an instance; failure
// lets waiters re-check the give-up guard). It reports whether the attempt
// missed capacity, so the segment should wait on admission and retry.
func (n *Node) attempted(err error) bool {
	n.active--
	if err == nil {
		n.epoch++
	}
	n.wakeLocal()
	return err != nil && errors.Is(err, molecule.ErrNoCapacity)
}

// attempt makes one runtime call for the request: RT.Invoke for a single
// function into req.res, or a chain-affinity PlaceChain plus InvokeChain
// for a chain into req.cres.
func (n *Node) attempt(wp *sim.Proc, req *request) (err error) {
	if !req.chain {
		req.res, err = n.RT.Invoke(wp, req.names[0], req.opts)
		return err
	}
	placement, err := n.RT.PlaceChain(req.names, molecule.PlaceChainAffinity)
	if err != nil {
		return err
	}
	req.cres, err = n.RT.InvokeChain(wp, req.names, molecule.ChainOptions{Placement: placement, Arg: req.opts.Arg})
	return err
}

// ensureDeployedLocal deploys fn on first use; concurrent requests for the
// same function wait for the in-progress deploy instead of re-deploying.
func (n *Node) ensureDeployedLocal(wp *sim.Proc, fn string) error {
	for {
		if n.deployed[fn] {
			return nil
		}
		if wg := n.deploying[fn]; wg != nil {
			wg.Wait(wp)
			continue
		}
		profiles := n.regs[fn]
		if len(profiles) == 0 {
			return fmt.Errorf("cluster: %q not deployable on machine %d", fn, n.ID())
		}
		wg := sim.NewWaitGroup(n.Env)
		wg.Add(1)
		n.deploying[fn] = wg
		err := n.RT.Deploy(wp, fn, profiles...)
		if err == nil {
			n.deployed[fn] = true
		}
		delete(n.deploying, fn)
		wg.Done()
		return err
	}
}

// retryable reports an error class the boss handles by failing the machine
// over: the runtime exhausted recovery (ErrUnavailable) or the PU is dead.
func retryable(err error) bool {
	return errors.Is(err, molecule.ErrUnavailable) || errors.Is(err, faults.ErrPUDown)
}

// complete finishes a request on the boss domain (scheduler context — never
// blocks): release the machine's window, then fail over on machine death,
// requeue on capacity races, reply otherwise; then pump the queue. req.node
// is the machine that replied, with error req.err.
//
//molecule:hotpath
func (b *Boss) complete(req *request) {
	n, err := req.node, req.err
	n.inflight -= len(req.names)
	b.inflight -= len(req.names)
	switch {
	case err != nil && retryable(err) && req.attempts < len(b.nodes):
		// The machine is unhealthy: mark it down and route the request
		// again, away from it.
		n.down = true
		req.attempts++
		if rerr := b.submit(req); rerr != nil {
			req.done.TrySend(reply{machine: n.ID(), err: err})
		}
	case err != nil && errors.Is(err, molecule.ErrNoCapacity) && req.requeues < maxRequeues:
		// Admission raced a cold-start burst on the machine: park the
		// request centrally; completions pump it back out.
		req.requeues++
		b.enqueue(req)
	case err != nil:
		n.served++
		req.done.TrySend(reply{machine: n.ID(), err: err})
	default:
		n.served++
		req.done.TrySend(reply{res: req.res, cres: req.cres, machine: n.ID()})
	}
	b.pump()
}

// pump drains the central queue while machines have room: route the head,
// and dispatch it if its machine has room. Chains re-place here, since
// machines may have changed. When the queue is non-empty but
// nothing is inflight and nothing has room, the queued requests can never
// be served — fail them rather than deadlock.
func (b *Boss) pump() {
	for len(b.queue) > 0 {
		req := b.queue[0]
		n, stolen, err := b.route(req)
		if err != nil {
			// The request became unservable (e.g. its only machines died).
			b.queue = b.queue[1:]
			req.done.TrySend(reply{machine: -1, err: err})
			continue
		}
		if n == nil || !n.hasRoom() {
			if b.inflight == 0 {
				// Nothing running, nothing admissible: fail the whole queue
				// deterministically rather than strand the clients.
				for _, q := range b.queue {
					q.done.TrySend(reply{machine: -1, err: errClusterSaturated})
				}
				b.queue = nil
			}
			return
		}
		b.queue = b.queue[1:]
		b.dispatch(req, n, stolen)
	}
}
