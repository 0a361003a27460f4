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
// conservative windowed driver at any OS worker count with byte-identical
// results.
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
//   - chains: placed on one machine whenever possible (the interconnect's
//     ms-scale base latency dwarfs the µs-scale intra-machine links — the
//     hw model's asymmetry), and only split into contiguous segments
//     across machines when no single machine has every required PU kind.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Message sizes for boss↔machine interconnect traffic: a request envelope,
// a reply envelope, and a chain's intermediate payload handed from one
// machine to the next.
const (
	requestBytes      = 1 << 10
	replyBytes        = 1 << 9
	intermediateBytes = 1 << 12
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
// profiles' PU kinds.
type registration struct {
	mask kindMask
}

// errClusterSaturated reports requests that found no capacity and nothing
// inflight to wait for: every eligible machine's capacity is zero. It wraps
// molecule.ErrUnavailable so callers above (httpd) can map it to 503
// without reaching into this package.
var errClusterSaturated = fmt.Errorf("cluster: saturated with nothing inflight: %w", molecule.ErrUnavailable)

// ingress charges the client↔boss network hop one way.
func ingress(p *sim.Proc) { p.Sleep(params.NetworkBaseLatency) }

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
	// a request that hits ErrNoCapacity parks here and retries when a local
	// completion frees an instance slot, instead of bouncing back to the
	// boss. FIFO-fair against the warm pool and free of the cross-machine
	// round trip.
	active  int                   // local execs inside an RT call
	epoch   int                   // bumped on every successful completion
	waiters []*sim.Chan[struct{}] // parked local requests
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
	// Link is the cross-machine interconnect; zero value selects the
	// standard datacenter network (params.NetworkBaseLatency/Bandwidth).
	Link hw.Link
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

// chainSeg is one contiguous run of chain functions placed on one node.
type chainSeg struct {
	node  *Node
	names []string
}

// request is one unit of routed work. Boss-side fields only; execution
// state crosses domains by value inside interconnect closures.
type request struct {
	fn    string
	opts  molecule.InvokeOptions
	chain []string
	copts molecule.ChainOptions
	plan  []chainSeg

	attempts int // failover budget: distinct placements tried
	requeues int // capacity-requeue budget (see maxRequeues)
	done     *sim.Chan[reply]
}

// maxRequeues bounds how often one request may bounce dispatch → machine
// ErrNoCapacity → central queue. Machine-level eviction makes capacity
// rejections transient, so real traffic requeues at most a handful of
// times; the bound is the deterministic backstop that turns any residual
// pathological cycle into a visible error instead of a livelock.
const maxRequeues = 64

func (r *request) slots() int {
	if r.chain != nil {
		return len(r.chain)
	}
	return 1
}

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
}

// NewBoss builds a cluster of cfg.Machines worker machines, boots every
// machine's runtime (running the group to quiescence once), and snapshots
// each machine's capacity and PU kinds into the boss's routing state.
func NewBoss(cfg BossConfig) (*Boss, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("cluster: boss needs at least 1 machine, got %d", cfg.Machines)
	}
	link := cfg.Link
	if link == (hw.Link{}) {
		link = hw.Link{Kind: hw.LinkNetwork, BaseLat: params.NetworkBaseLatency, Bandwith: params.NetworkBandwidth}
	}
	sh := sim.NewSharded(cfg.Machines + 1)
	b := &Boss{
		Sharded:  sh,
		IC:       hw.NewInterconnect(sh, link),
		Env:      sh.Domain(0),
		Registry: workloads.NewRegistry(),
		funcs:    make(map[string]*registration),
	}
	bootErrs := make([]error, cfg.Machines)
	for i := 0; i < cfg.Machines; i++ {
		n := &Node{
			Domain:    i + 1,
			Env:       sh.Domain(i + 1),
			regs:      make(map[string][]molecule.Profile),
			deployed:  make(map[string]bool),
			deploying: make(map[string]*sim.WaitGroup),
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
	sh.Run(1) // boot to quiescence, single worker: nothing to parallelize yet
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

// Run drives the whole cluster to quiescence on the given OS worker count
// (0 = GOMAXPROCS) and returns the final virtual time. Results are
// byte-identical at every worker count.
func (b *Boss) Run(workers int) sim.Time {
	return b.Sharded.Run(workers)
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
	b.funcs[funcName] = &registration{mask: mask}
	for _, n := range b.nodes {
		if local := n.kinds.filter(profiles); len(local) > 0 {
			n.regs[funcName] = local
		}
	}
	return nil
}

// Drain excludes a machine from routing; Undrain re-admits it. Both pump
// the central queue, since the eligible set changed.
func (b *Boss) Drain(worker int) error {
	if worker < 0 || worker >= len(b.nodes) {
		return fmt.Errorf("cluster: no machine %d", worker)
	}
	b.nodes[worker].draining = true
	b.pump()
	return nil
}

// Undrain re-admits a drained machine to routing.
func (b *Boss) Undrain(worker int) error {
	if worker < 0 || worker >= len(b.nodes) {
		return fmt.Errorf("cluster: no machine %d", worker)
	}
	b.nodes[worker].draining = false
	b.pump()
	return nil
}

// Readmit clears a machine's down mark after the operator revived it
// (faults.Revive), letting routing use it again.
func (b *Boss) Readmit(worker int) error {
	if worker < 0 || worker >= len(b.nodes) {
		return fmt.Errorf("cluster: no machine %d", worker)
	}
	b.nodes[worker].down = false
	b.pump()
	return nil
}

// rendezvous scores (fn, node) with a 64-bit FNV-1a hash: every function
// gets a stable, deterministic preference order over machines, so repeat
// invocations land on their warm instances (highest-random-weight
// hashing). Seeded data only — no global randomness — so the detrand
// invariant holds.
func rendezvous(fn string, domain int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(fn))
	h.Write([]byte{byte(domain), byte(domain >> 8)})
	return h.Sum64()
}

// eligibleFor reports whether the node can run fn's registration at all.
func (b *Boss) eligibleFor(n *Node, mask kindMask) bool {
	return !n.draining && !n.down && n.kinds&mask != 0
}

// routeOne picks the node for a single-function request: affinity home if
// it has room; else steal to the least-loaded eligible node with room;
// else nil (caller queues). The error is non-nil only when no live
// eligible node exists at all.
func (b *Boss) routeOne(fn string) (*Node, bool, error) {
	r, ok := b.funcs[fn]
	if !ok {
		return nil, false, fmt.Errorf("cluster: function %q not registered", fn)
	}
	var home *Node
	var homeScore uint64
	var spill *Node
	spillLoad := 0.0
	any := false
	for _, n := range b.nodes {
		if !b.eligibleFor(n, r.mask) {
			continue
		}
		any = true
		if s := rendezvous(fn, n.Domain); home == nil || s > homeScore {
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
		return nil, false, fmt.Errorf("cluster: no eligible machine for %q", fn)
	}
	if home != nil && home.hasRoom() {
		return home, false, nil
	}
	if spill != nil {
		return spill, true, nil // work stealing: home saturated
	}
	return nil, false, nil // all saturated: queue
}

// planChain places a chain: one machine whenever some eligible machine
// supports every function (the interconnect's base latency is ~10³× the
// intra-machine links, so locality always wins — the hw asymmetry made
// explicit), otherwise contiguous maximal segments, each on the machine
// whose intra-machine host links reach the segment's PU kinds cheapest
// (hw.Machine.HostLinkLat), tie-broken by load then domain order.
func (b *Boss) planChain(names []string) ([]chainSeg, error) {
	masks := make([]kindMask, len(names))
	for i, fn := range names {
		r, ok := b.funcs[fn]
		if !ok {
			return nil, fmt.Errorf("cluster: function %q not registered", fn)
		}
		masks[i] = r.mask
	}
	// Locality first: the affinity-preferred machine among those eligible
	// for the whole chain.
	if n := b.wholeChainHome(names, masks); n != nil {
		return []chainSeg{{node: n, names: names}}, nil
	}
	// Split: greedy maximal contiguous segments. Each segment extends
	// while any live machine supports all its functions; every cut pays
	// one interconnect hop.
	var plan []chainSeg
	for start := 0; start < len(names); {
		end := start
		var candidates []*Node
		for end < len(names) {
			next := b.segmentHosts(masks[start : end+1])
			if len(next) == 0 {
				break
			}
			candidates = append(candidates[:0], next...)
			end++
		}
		if end == start {
			return nil, fmt.Errorf("cluster: no machine can run %q", names[start])
		}
		plan = append(plan, chainSeg{node: b.bestSegmentHost(candidates, masks[start:end]), names: names[start:end]})
		start = end
	}
	return plan, nil
}

// wholeChainHome returns the rendezvous-preferred machine eligible for
// every chain function, preferring machines with room, or nil.
func (b *Boss) wholeChainHome(names []string, masks []kindMask) *Node {
	var home, fallback *Node
	var homeScore, fbScore uint64
	for _, n := range b.nodes {
		if !n.runsAll(masks) {
			continue
		}
		s := rendezvous(names[0], n.Domain)
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
	return fallback // saturated everywhere: locality still beats splitting
}

// segmentHosts returns the live machines supporting every mask.
func (b *Boss) segmentHosts(masks []kindMask) []*Node {
	var out []*Node
	for _, n := range b.nodes {
		if n.runsAll(masks) {
			out = append(out, n)
		}
	}
	return out
}

// runsAll reports whether the node is routable (not drained, not down) and
// has a PU kind for every mask.
func (n *Node) runsAll(masks []kindMask) bool {
	if n.draining || n.down {
		return false
	}
	for _, m := range masks {
		if n.kinds&m == 0 {
			return false
		}
	}
	return true
}

// bestSegmentHost scores candidate hosts for a chain segment by the sum of
// their cheapest host→kind link latencies over the segment's required
// kinds — the intra-machine side of the asymmetry — then by load, then by
// domain order (determinism).
func (b *Boss) bestSegmentHost(candidates []*Node, masks []kindMask) *Node {
	best := candidates[0]
	bestCost, bestLoad := b.segmentCost(best, masks), nodeLoad(best)
	for _, n := range candidates[1:] {
		c, l := b.segmentCost(n, masks), nodeLoad(n)
		if c < bestCost || (c == bestCost && l < bestLoad) {
			best, bestCost, bestLoad = n, c, l
		}
	}
	return best
}

func nodeLoad(n *Node) float64 {
	if n.capacity == 0 {
		return 1
	}
	return float64(n.inflight) / float64(n.capacity)
}

// segmentCost sums the node's cheapest host-link latency to each required
// kind mask (taking the cheapest kind the mask admits on this machine).
func (b *Boss) segmentCost(n *Node, masks []kindMask) time.Duration {
	var total time.Duration
	for _, m := range masks {
		best, found := time.Duration(0), false
		for _, pu := range n.HW.PUs() {
			if !m.has(pu.Kind) {
				continue
			}
			if lat, ok := n.HW.HostLinkLat(pu.Kind); ok {
				if !found || lat < best {
					best, found = lat, true
				}
			}
		}
		if found {
			total += best
		}
	}
	return total
}

// Invoke submits one request from a client process on the boss domain and
// blocks until its reply. It satisfies loadgen.Invoker, so the same
// traffic model drives a single runtime or the whole cluster.
func (b *Boss) Invoke(p *sim.Proc, funcName string, opts molecule.InvokeOptions) (molecule.Result, error) {
	res, _, err := b.InvokeDetailed(p, funcName, opts)
	return res, err
}

// InvokeDetailed is Invoke plus the worker index that served the request.
func (b *Boss) InvokeDetailed(p *sim.Proc, funcName string, opts molecule.InvokeOptions) (molecule.Result, int, error) {
	ingress(p) // client → boss network hop
	req := &request{fn: funcName, opts: opts, done: sim.NewChan[reply](b.Env, 1)}
	if err := b.submit(req); err != nil {
		return molecule.Result{}, -1, err
	}
	rep, _ := req.done.Recv(p)
	ingress(p) // boss → client
	return rep.res, rep.machine, rep.err
}

// InvokeChain submits a chain, placed for locality and split across
// machines only when no single machine can run it. Satisfies
// loadgen.Invoker.
func (b *Boss) InvokeChain(p *sim.Proc, names []string, opts molecule.ChainOptions) (molecule.ChainResult, error) {
	if len(names) == 0 {
		return molecule.ChainResult{}, fmt.Errorf("cluster: empty chain")
	}
	ingress(p)
	req := &request{chain: names, copts: opts, done: sim.NewChan[reply](b.Env, 1)}
	if err := b.submit(req); err != nil {
		return molecule.ChainResult{}, err
	}
	rep, _ := req.done.Recv(p)
	ingress(p)
	return rep.cres, rep.err
}

// submit routes a request or queues it. Boss-domain only. A non-nil error
// means the request can never run (unregistered, or no live machine has
// the kinds).
func (b *Boss) submit(req *request) error {
	if req.chain != nil {
		plan, err := b.planChain(req.chain)
		if err != nil {
			return err
		}
		req.plan = plan
		b.dispatchChain(req)
		return nil
	}
	n, stolen, err := b.routeOne(req.fn)
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
	b.dispatchOne(req, n, stolen)
	return nil
}

func (b *Boss) enqueue(req *request) {
	b.queue = append(b.queue, req)
	if len(b.queue) > b.queuedPeak {
		b.queuedPeak = len(b.queue)
	}
}

// dispatchOne sends a single-function request to node n over the
// interconnect; stolen marks a request routed away from its saturated home.
func (b *Boss) dispatchOne(req *request, n *Node, stolen bool) {
	if stolen {
		n.stolen++
		b.stolen++
	}
	n.inflight++
	b.inflight++
	//lint:owned request handoff: req travels with the message and is next touched only by the destination node's exec callback; b's fields are mutated only by deliveries on the boss domain
	b.IC.Send(b.Env, n.Domain, requestBytes, func() {
		n.Env.Spawn("exec-"+req.fn, func(wp *sim.Proc) {
			res, err := n.invokeLocal(wp, req.fn, req.opts)
			//lint:owned reply to the boss: res/err are finalized before the send and b mutates its own state only on delivery in its domain
			b.IC.Send(n.Env, 0, replyBytes, func() {
				b.completeOne(req, n, res, err)
			})
		})
	})
}

// wakeLocal releases every parked request to re-check admission.
func (n *Node) wakeLocal() {
	ws := n.waiters
	n.waiters = nil
	for _, ch := range ws {
		ch.TrySend(struct{}{})
	}
}

// awaitLocal parks the request until a local completion advances the
// epoch. It reports false — give up — when nothing else is running on the
// machine, so no completion can ever free a slot. Waiters woken without an
// epoch advance re-park (wake-all is only an invitation to re-check), and
// a give-up cascades the wake so other parked requests also notice.
func (n *Node) awaitLocal(wp *sim.Proc) bool {
	seen := n.epoch
	for n.epoch == seen {
		if n.active == 0 {
			n.wakeLocal()
			return false
		}
		ch := sim.NewChan[struct{}](n.Env, 1)
		n.waiters = append(n.waiters, ch)
		ch.Recv(wp)
	}
	return true
}

// attemptLocal wraps one RT attempt with the admission bookkeeping: track
// active execs, bump the epoch on success, and wake parked requests after
// every attempt (success frees an instance; failure lets waiters re-check
// the give-up guard).
func attemptLocal[T any](n *Node, call func() (T, error)) (T, error) {
	n.active++
	res, err := call()
	n.active--
	if err == nil {
		n.epoch++
	}
	n.wakeLocal()
	return res, err
}

// invokeLocal runs one function on the node: machine-side deploy-on-first-
// use (deduplicated across concurrent requests), then the local runtime,
// parking on the machine's admission queue while it is at capacity.
func (n *Node) invokeLocal(wp *sim.Proc, fn string, opts molecule.InvokeOptions) (molecule.Result, error) {
	if err := n.ensureDeployedLocal(wp, fn); err != nil {
		return molecule.Result{}, err
	}
	for {
		res, err := attemptLocal(n, func() (molecule.Result, error) {
			return n.RT.Invoke(wp, fn, opts)
		})
		if err != nil && errors.Is(err, molecule.ErrNoCapacity) && n.awaitLocal(wp) {
			continue
		}
		return res, err
	}
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

// dispatchChain charges every planned node's inflight window up front and
// starts segment 0; segments hop machine→machine directly over the
// interconnect, and only the final segment (or the first error) reports
// back to the boss.
func (b *Boss) dispatchChain(req *request) {
	for _, seg := range req.plan {
		seg.node.inflight += len(seg.names)
		b.inflight += len(seg.names)
	}
	first := req.plan[0].node
	//lint:owned chain kickoff: req ownership moves to segment 0's machine with the message; the boss touches it again only in the completion reply
	b.IC.Send(b.Env, first.Domain, requestBytes, func() {
		b.execSegment(req, 0, molecule.ChainResult{})
	})
}

// execSegment runs on req.plan[idx].node's domain: execute the segment
// locally, then either hop to the next segment's machine (charging the
// intermediate transfer on the chain's latency) or reply to the boss.
func (b *Boss) execSegment(req *request, idx int, acc molecule.ChainResult) {
	seg := req.plan[idx]
	n := seg.node
	n.Env.Spawn("chainseg", func(wp *sim.Proc) {
		for _, fn := range seg.names {
			if err := n.ensureDeployedLocal(wp, fn); err != nil {
				//lint:owned chain reply: acc and req are dead on the sending machine after this send; the boss consumes them on delivery in its own domain
				b.IC.Send(n.Env, 0, replyBytes, func() { b.completeChain(req, n, acc, err) })
				return
			}
		}
		var res molecule.ChainResult
		var err error
		for {
			res, err = attemptLocal(n, func() (molecule.ChainResult, error) {
				return n.RT.InvokeChainWithPolicy(wp, seg.names, molecule.PlaceChainAffinity)
			})
			if err != nil && errors.Is(err, molecule.ErrNoCapacity) && n.awaitLocal(wp) {
				continue
			}
			break
		}
		if err != nil {
			//lint:owned chain reply: acc and req are dead on the sending machine after this send; the boss consumes them on delivery in its own domain
			b.IC.Send(n.Env, 0, replyBytes, func() { b.completeChain(req, n, acc, err) })
			return
		}
		acc.Total += res.Total
		acc.EdgeLatency = append(acc.EdgeLatency, res.EdgeLatency...)
		acc.ExecTotal += res.ExecTotal
		acc.ColdStarts += res.ColdStarts
		if idx+1 == len(req.plan) {
			//lint:owned chain reply: acc and req are dead on the sending machine after this send; the boss consumes them on delivery in its own domain
			b.IC.Send(n.Env, 0, replyBytes, func() { b.completeChain(req, n, acc, nil) })
			return
		}
		// Hand the intermediate result to the next segment's machine: one
		// interconnect hop, charged on the chain's own latency.
		hop := b.IC.TransferTime(intermediateBytes)
		acc.Total += hop
		acc.EdgeLatency = append(acc.EdgeLatency, hop)
		next := req.plan[idx+1].node
		//lint:owned segment hop: acc and req move to the next machine with the message; the sending segment never touches them again
		b.IC.Send(n.Env, next.Domain, intermediateBytes, func() {
			b.execSegment(req, idx+1, acc)
		})
	})
}

// retryable reports an error class the boss handles by failing the machine
// over: the runtime exhausted recovery (ErrUnavailable) or the PU is dead.
func retryable(err error) bool {
	return errors.Is(err, molecule.ErrUnavailable) || errors.Is(err, faults.ErrPUDown)
}

// completeOne finishes a single-function request on the boss domain
// (scheduler context — never blocks): failover on machine death, requeue
// on capacity races, reply otherwise; then pump the queue.
func (b *Boss) completeOne(req *request, n *Node, res molecule.Result, err error) {
	n.inflight--
	b.inflight--
	switch {
	case err != nil && retryable(err) && req.attempts < len(b.nodes):
		// The machine is unhealthy: mark it down and route the request
		// again, away from it. Readmit() re-admits after a revive.
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
		req.done.TrySend(reply{res: res, machine: n.ID()})
	}
	b.pump()
}

// completeChain finishes a chain request: release every planned node's
// window, then failover/reply like completeOne.
func (b *Boss) completeChain(req *request, n *Node, acc molecule.ChainResult, err error) {
	for _, seg := range req.plan {
		seg.node.inflight -= len(seg.names)
		b.inflight -= len(seg.names)
	}
	switch {
	case err != nil && retryable(err) && req.attempts < len(b.nodes):
		n.down = true
		req.attempts++
		if plan, perr := b.planChain(req.chain); perr == nil {
			req.plan = plan
			b.dispatchChain(req)
		} else {
			req.done.TrySend(reply{machine: n.ID(), err: err})
		}
	case err != nil && errors.Is(err, molecule.ErrNoCapacity) && req.requeues < maxRequeues:
		req.requeues++
		b.enqueue(req)
	case err != nil:
		req.done.TrySend(reply{machine: n.ID(), err: err})
	default:
		n.served++
		req.done.TrySend(reply{cres: acc, machine: n.ID()})
	}
	b.pump()
}

// pump drains the central queue while machines have room. When the queue
// is non-empty but nothing is inflight and nothing has room, the queued
// requests can never be served — fail them rather than deadlock.
func (b *Boss) pump() {
	for len(b.queue) > 0 {
		req := b.queue[0]
		var err error
		var routed bool
		if req.chain != nil {
			// Chains re-plan at pump time (machines may have changed).
			if plan, perr := b.planChain(req.chain); perr != nil {
				err = perr
			} else if head := plan[0].node; head.hasRoom() {
				b.queue = b.queue[1:]
				req.plan = plan
				b.dispatchChain(req)
				routed = true
			}
		} else {
			var n *Node
			var stolen bool
			n, stolen, err = b.routeOne(req.fn)
			if err == nil && n != nil {
				b.queue = b.queue[1:]
				b.dispatchOne(req, n, stolen)
				routed = true
			}
		}
		if err != nil {
			// The request became unservable (e.g. its only machines died).
			b.queue = b.queue[1:]
			req.done.TrySend(reply{machine: -1, err: err})
			continue
		}
		if !routed {
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
	}
}
