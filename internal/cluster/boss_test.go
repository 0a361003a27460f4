package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// newTestBoss builds a small cluster and registers the given functions on
// the default CPU profile.
func newTestBoss(t *testing.T, machines int, cfg hw.Config, capacity int, fns ...string) *Boss {
	t.Helper()
	b, err := NewBoss(BossConfig{Machines: machines, HW: cfg, Opts: molecule.DefaultOptions(), Capacity: capacity})
	if err != nil {
		t.Fatalf("NewBoss: %v", err)
	}
	for _, fn := range fns {
		if err := b.Register(fn); err != nil {
			t.Fatalf("Register(%q): %v", fn, err)
		}
	}
	return b
}

// restrictKinds narrows machine i's PU kinds as the boss sees them, so a
// homogeneous BossConfig fleet can stand in for a heterogeneous one, and
// re-filters the profiles already registered there. Call before Run.
func restrictKinds(b *Boss, i int, kinds ...hw.PUKind) {
	n := b.nodes[i]
	n.kinds = maskOf(kinds...)
	for fn, profiles := range n.regs {
		if local := n.kinds.filter(profiles); len(local) > 0 {
			n.regs[fn] = local
		} else {
			delete(n.regs, fn)
		}
	}
}

// checkQuiescent fails the test if any inflight window is still charged.
func checkQuiescent(t *testing.T, b *Boss, when string) {
	t.Helper()
	if got := b.Inflight(); got != 0 {
		t.Errorf("%s: boss inflight = %d, want 0", when, got)
	}
	for _, n := range b.Nodes() {
		if n.Inflight() != 0 {
			t.Errorf("%s: machine %d inflight = %d, want 0", when, n.ID(), n.Inflight())
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 0)
	if err := b.Register("nope"); err == nil {
		t.Error("unknown function registered")
	}
	if err := b.Register("matmul"); err != nil {
		t.Error(err)
	}
}

// invokeSeq runs one client that invokes fn count times in a row, runs the
// cluster to quiescence, and returns each result and serving machine.
func invokeSeq(t *testing.T, b *Boss, fn string, count int) ([]molecule.Result, []int) {
	t.Helper()
	var res []molecule.Result
	var machines []int
	b.Env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			r, m, err := b.InvokeDetailed(p, fn, molecule.InvokeOptions{PU: -1})
			if err != nil {
				t.Errorf("invoke %s #%d: %v", fn, i, err)
				return
			}
			res, machines = append(res, r), append(machines, m)
		}
	})
	b.Run(1)
	if len(res) != count {
		t.Fatalf("%d of %d invokes of %s completed", len(res), count, fn)
	}
	return res, machines
}

// TestScheduleByPUKind: an FPGA-only registration is routed only to the
// machine whose kinds include an FPGA, and served on the FPGA there.
func TestScheduleByPUKind(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{FPGAs: 1}, 0)
	restrictKinds(b, 0, hw.CPU) // machine 0: CPU only; machine 1: CPU + FPGA
	if err := b.Register("mscale", molecule.DefaultProfile(hw.FPGA)); err != nil {
		t.Fatal(err)
	}
	res, machines := invokeSeq(t, b, "mscale", 3)
	for i := range res {
		if machines[i] != 1 || res[i].Kind != hw.FPGA {
			t.Errorf("invoke %d served by machine %d on %v, want machine 1 on FPGA", i, machines[i], res[i].Kind)
		}
	}
	checkQuiescent(t, b, "after run")
}

// TestNoEligibleWorker: a function whose PU kinds no machine has is
// rejected at routing time.
func TestNoEligibleWorker(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 0)
	if err := b.Register("mscale", molecule.DefaultProfile(hw.FPGA)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.routeOne("mscale"); err == nil || !strings.Contains(err.Error(), "no eligible machine") {
		t.Fatalf("FPGA request on a CPU-only cluster: err = %v, want \"no eligible machine\"", err)
	}
}

// TestLazyDeploymentPerWorker: registering deploys nothing; the serving
// machine deploys on its first request and reuses the warm instance after.
func TestLazyDeploymentPerWorker(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 0, "matmul")
	for _, n := range b.Nodes() {
		if n.deployed["matmul"] {
			t.Fatalf("machine %d deployed matmul before its first request", n.ID())
		}
	}
	res, machines := invokeSeq(t, b, "matmul", 2)
	for _, n := range b.Nodes() {
		if want := n.ID() == machines[0]; n.deployed["matmul"] != want {
			t.Errorf("machine %d deployed=%v, want %v (served by %v)", n.ID(), n.deployed["matmul"], want, machines)
		}
	}
	if res[1].Cold {
		t.Error("second invoke cold: warm instance not reused")
	}
}

// TestChainSchedulesToOneWorker: a MapReduce chain runs on one machine, and
// a warm re-run lands there again with no cold starts.
func TestChainSchedulesToOneWorker(t *testing.T) {
	chain := workloads.MapReduceChain()
	b := newTestBoss(t, 2, hw.Config{DPUs: 1}, 0, chain...)
	var runs []molecule.ChainResult
	var served [][]int
	b.Env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			res, err := b.InvokeChain(p, chain, molecule.ChainOptions{})
			if err != nil {
				t.Errorf("chain %d: %v", i, err)
				return
			}
			runs = append(runs, res)
			served = append(served, servedOf(b))
		}
	})
	b.Run(1)
	if len(runs) != 2 {
		t.Fatal("chains did not complete")
	}
	if runs[0].ColdStarts != len(chain) || runs[1].ColdStarts != 0 {
		t.Errorf("cold starts = %d then %d, want %d then 0", runs[0].ColdStarts, runs[1].ColdStarts, len(chain))
	}
	if got := served[1]; got[0]+got[1] != 2 || (got[0] != 2 && got[1] != 2) {
		t.Errorf("two chains served as %v, want both on one machine", got)
	}
}

// TestMixedChainNeedsHeterogeneousWorker: a chain with a DPU-only member
// runs whole on the one machine that has a DPU, rather than splitting its
// CPU-capable head off to a CPU-only machine across the interconnect.
func TestMixedChainNeedsHeterogeneousWorker(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{DPUs: 1}, 0)
	if err := b.Register("pyaes", molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("matmul", molecule.DefaultProfile(hw.DPU)); err != nil {
		t.Fatal(err)
	}
	restrictKinds(b, 0, hw.CPU) // machine 0: CPU only; machine 1: CPU + DPU
	var res molecule.ChainResult
	var err error
	b.Env.Spawn("client", func(p *sim.Proc) {
		res, err = b.InvokeChain(p, []string{"pyaes", "matmul"}, molecule.ChainOptions{})
	})
	b.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.EdgeLatency {
		if e >= b.IC.Lookahead() {
			t.Errorf("edge %d latency %v >= interconnect base: chain was split", i, e)
		}
	}
	if got := servedOf(b); got[0] != 0 || got[1] != 1 {
		t.Errorf("chain served as %v, want machine 1 only", got)
	}
}

// TestDrainExcludesWorker: a drained machine serves nothing, a fully
// drained cluster rejects requests, Undrain re-admits, and out-of-range
// machine indices are rejected.
func TestDrainExcludesWorker(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 0, "matmul")
	invoke := func(p *sim.Proc) (int, error) {
		_, w, err := b.InvokeDetailed(p, "matmul", molecule.InvokeOptions{PU: -1})
		return w, err
	}
	b.Env.Spawn("client", func(p *sim.Proc) {
		b.Drain(0)
		for i := 0; i < 3; i++ {
			if w, err := invoke(p); err != nil || w != 1 {
				t.Errorf("invoke %d with machine 0 drained: machine %d, err %v", i, w, err)
			}
		}
		b.Drain(1)
		if _, err := invoke(p); err == nil {
			t.Error("request routed onto a fully drained cluster")
		}
		b.Undrain(0)
		if w, err := invoke(p); err != nil || w != 0 {
			t.Errorf("undrained machine not used: machine %d, err %v", w, err)
		}
	})
	b.Run(1)
	if err := b.Drain(9); err == nil {
		t.Error("drain of unknown machine accepted")
	}
	if err := b.Undrain(-1); err == nil {
		t.Error("undrain of unknown machine accepted")
	}
	checkQuiescent(t, b, "after run")
}

// TestInflightZeroOnErrorPaths walks every rejection path and checks that
// none leaves an inflight window charged.
func TestInflightZeroOnErrorPaths(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 0, "pyaes")
	if err := b.Register("mscale", molecule.DefaultProfile(hw.FPGA)); err != nil {
		t.Fatal(err)
	}
	b.Env.Spawn("client", func(p *sim.Proc) {
		if _, err := b.Invoke(p, "unregistered", molecule.InvokeOptions{PU: -1}); err == nil {
			t.Error("unregistered function routed")
		}
		checkQuiescent(t, b, "unregistered function")
		if _, err := b.Invoke(p, "mscale", molecule.InvokeOptions{PU: -1}); err == nil {
			t.Error("FPGA function routed on a CPU-only cluster")
		}
		checkQuiescent(t, b, "kind mismatch")
		if _, err := b.InvokeChain(p, []string{"pyaes", "mscale"}, molecule.ChainOptions{}); err == nil {
			t.Error("mixed chain routed on a CPU-only cluster")
		}
		checkQuiescent(t, b, "ineligible chain")
		b.Drain(0)
		if _, err := b.Invoke(p, "pyaes", molecule.InvokeOptions{PU: -1}); err == nil {
			t.Error("request routed on a fully drained cluster")
		}
		checkQuiescent(t, b, "fully drained")
		b.Undrain(0)
		if _, err := b.Invoke(p, "pyaes", molecule.InvokeOptions{PU: -1}); err != nil {
			t.Errorf("healthy invoke after the error paths: %v", err)
		}
		checkQuiescent(t, b, "after recovery")
	})
	b.Run(1)
}

// TestChainBurstAboveCapacityCompletes: more concurrent chains than the
// machine has instance slots all complete with zero errors. The boss
// dispatches every chain to its home; the overflow parks on the machine's
// admission queue until completions free slots.
func TestChainBurstAboveCapacityCompletes(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 2, "pyaes")
	const burst = 4 // 2 slots each: 4× capacity
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		i := i
		b.Env.Spawn(fmt.Sprintf("chain-%d", i), func(p *sim.Proc) {
			_, errs[i] = b.InvokeChain(p, []string{"pyaes", "pyaes"}, molecule.ChainOptions{})
		})
	}
	b.Run(1)
	for i, err := range errs {
		if err != nil {
			t.Errorf("chain %d: %v", i, err)
		}
	}
	checkQuiescent(t, b, "after burst")
}

// TestBurstAboveCapacityCompletes: a burst of twice the cluster's total
// instance capacity completes with zero errors. The overflow queues and is
// served as completions free slots instead of failing with "no eligible
// machine", and no inflight window stays charged afterwards.
func TestBurstAboveCapacityCompletes(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 2, "pyaes")
	total := 0
	for _, n := range b.Nodes() {
		total += n.Capacity()
	}
	burst := 2 * total
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		i := i
		b.Env.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			_, errs[i] = b.Invoke(p, "pyaes", molecule.InvokeOptions{PU: -1})
		})
	}
	b.Run(1)
	for i, err := range errs {
		if err != nil {
			t.Errorf("burst request %d: %v", i, err)
		}
	}
	if got := servedOf(b); got[0]+got[1] != burst {
		t.Errorf("served %v, want %d in total", got, burst)
	}
	checkQuiescent(t, b, "after burst")
}

// TestSaturatedIdleClusterStillErrors pins the deadlock guard: when every
// machine's runtime has zero instance capacity and nothing is inflight, a
// request fails fast with molecule.ErrUnavailable (nothing will ever
// complete to wake it), and no inflight window stays charged.
func TestSaturatedIdleClusterStillErrors(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 0, "pyaes")
	for _, n := range b.Nodes() {
		for _, pu := range n.HW.PUs() {
			if pu.Kind.GeneralPurpose() {
				n.RT.SetCapacity(pu.ID, 0)
			}
		}
		n.capacity = n.RT.Capacity()
	}
	var err error
	b.Env.Spawn("client", func(p *sim.Proc) {
		_, err = b.Invoke(p, "pyaes", molecule.InvokeOptions{PU: -1})
	})
	b.Run(1)
	if err == nil {
		t.Fatal("invoke on a zero-capacity cluster succeeded")
	}
	if !errors.Is(err, molecule.ErrUnavailable) {
		t.Errorf("error %v does not wrap molecule.ErrUnavailable", err)
	}
	checkQuiescent(t, b, "after error")
}

// TestDrainMidBurstStrandsNothing drains a machine while a burst is in
// flight: every request still completes (the drained machine finishes what
// it accepted; queued work goes to the survivor).
func TestDrainMidBurstStrandsNothing(t *testing.T) {
	const burst = 10
	b := newTestBoss(t, 2, hw.Config{}, 2, "pyaes")
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		i := i
		b.Env.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			_, errs[i] = b.Invoke(p, "pyaes", molecule.InvokeOptions{PU: -1})
		})
	}
	inflightAtDrain := 0
	b.Env.Spawn("operator", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond) // inside the burst's service window
		inflightAtDrain = b.Inflight()
		if err := b.Drain(0); err != nil {
			t.Error(err)
		}
	})
	b.Run(1)
	if inflightAtDrain == 0 {
		t.Fatal("drain landed after the burst: nothing was inflight")
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d failed across drain: %v", i, err)
		}
	}
	checkQuiescent(t, b, "after drain")
}

// TestGatewayLoadBalancesConcurrentTraffic drives concurrent requests
// through the boss at two identical machines, more than the home machine
// has slots for, and checks both serve a share.
func TestGatewayLoadBalancesConcurrentTraffic(t *testing.T) {
	const reqs = 12
	b := newTestBoss(t, 2, hw.Config{}, 2, "pyaes")
	served := make(map[int]int)
	for i := 0; i < reqs; i++ {
		b.Env.Spawn(fmt.Sprintf("req-%d", i), func(p *sim.Proc) {
			_, m, err := b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1})
			if err != nil {
				t.Error(err)
				return
			}
			served[m]++
		})
	}
	b.Run(1)
	if served[0] == 0 || served[1] == 0 {
		t.Errorf("load not balanced: %v", served)
	}
	if served[0]+served[1] != reqs {
		t.Errorf("served %v, want %d total", served, reqs)
	}
	checkQuiescent(t, b, "after run")
}

// TestScheduleZeroAlloc pins the single-function routing decision at zero
// allocations: eligibility is a precomputed mask AND and the load model is
// the boss's own counters.
func TestScheduleZeroAlloc(t *testing.T) {
	b := newTestBoss(t, 4, hw.Config{DPUs: 1}, 0, "pyaes", "matmul")
	if n := testing.AllocsPerRun(100, func() {
		if n, _, err := b.routeOne("pyaes"); err != nil || n == nil {
			t.Fatalf("routeOne: node %v, err %v", n, err)
		}
	}); n != 0 {
		t.Errorf("routeOne allocates %v/op, want 0", n)
	}
}

func TestBossInvokeCompletes(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 0, "pyaes")
	res, machines := invokeSeq(t, b, "pyaes", 1)
	if res[0].Total <= 0 {
		t.Fatalf("want positive total latency, got %v", res[0].Total)
	}
	if machines[0] < 0 || machines[0] >= 2 {
		t.Fatalf("served by machine %d, want 0 or 1", machines[0])
	}
	checkQuiescent(t, b, "after run")
}

// TestBossWarmAffinity: repeat invocations of the same function must land
// on the same machine (rendezvous home), so the second request reuses the
// first's warm instance instead of cold-starting a second machine.
func TestBossWarmAffinity(t *testing.T) {
	b := newTestBoss(t, 4, hw.Config{}, 0, "pyaes")
	res, machines := invokeSeq(t, b, "pyaes", 6)
	colds := 0
	for i := range res {
		if machines[i] != machines[0] {
			t.Fatalf("affinity broken: requests served by machines %v", machines)
		}
		if res[i].Cold {
			colds++
		}
	}
	if colds != 1 {
		t.Fatalf("cold starts = %d, want exactly 1 (warm reuse on the home machine)", colds)
	}
}

// TestBossWorkStealing: saturate the home machine and verify overflow is
// stolen by another machine rather than queued or failed.
func TestBossWorkStealing(t *testing.T) {
	const machines, cap = 3, 2
	b := newTestBoss(t, machines, hw.Config{}, cap, "pyaes")
	const n = machines * cap // enough to need every machine
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		b.Env.Spawn(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			_, errs[i] = b.Invoke(p, "pyaes", molecule.InvokeOptions{PU: -1})
		})
	}
	b.Run(1)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if b.Stolen() == 0 {
		t.Fatalf("no requests stolen despite %d concurrent requests on home capacity %d", n, cap)
	}
	busy := 0
	for _, node := range b.Nodes() {
		if node.Served() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("work stealing did not spread load: served=%v", servedOf(b))
	}
}

// TestBossCentralQueue: more concurrent requests than cluster-wide
// capacity must queue at the boss and drain, with zero failures.
func TestBossCentralQueue(t *testing.T) {
	const machines, cap = 2, 1
	b := newTestBoss(t, machines, hw.Config{}, cap, "pyaes")
	const n = 3 * machines * cap // 3x cluster capacity
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		b.Env.Spawn(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			_, errs[i] = b.Invoke(p, "pyaes", molecule.InvokeOptions{PU: -1})
		})
	}
	b.Run(1)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if b.QueuedPeak() == 0 {
		t.Fatalf("queue never used at 3x overload (peak=0)")
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight after run = %d, want 0", got)
	}
}

// TestBossChainLocality: a chain whose functions all fit one machine must
// run on one machine — zero interconnect hops inside the chain.
func TestBossChainLocality(t *testing.T) {
	b := newTestBoss(t, 3, hw.Config{DPUs: 1}, 0, "mr-splitter", "mr-mapper", "mr-reducer")
	var res molecule.ChainResult
	var err error
	b.Env.Spawn("client", func(p *sim.Proc) {
		res, err = b.InvokeChain(p, []string{"mr-splitter", "mr-mapper", "mr-reducer"}, molecule.ChainOptions{})
	})
	b.Run(1)
	if err != nil {
		t.Fatalf("InvokeChain: %v", err)
	}
	// A split chain appends the interconnect hop (ms-scale) to EdgeLatency;
	// a local chain's edges are all intra-machine (µs-scale).
	for i, e := range res.EdgeLatency {
		if e >= b.IC.Lookahead() {
			t.Fatalf("edge %d latency %v >= interconnect base %v: chain was split", i, e, b.IC.Lookahead())
		}
	}
	served := 0
	for _, n := range b.Nodes() {
		if n.Served() > 0 {
			served++
		}
	}
	if served != 1 {
		t.Fatalf("local chain touched %d machines, want 1 (served=%v)", served, servedOf(b))
	}
}

// TestBossChainSplitHetero forces the chain-split path: two machines with
// hand-restricted kind masks (emulating a heterogeneous fleet) so the
// chain pyaes→matmul has no single eligible home and must run as two
// segments with an interconnect hop between them.
func TestBossChainSplitHetero(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{DPUs: 1}, 0)
	if err := b.Register("pyaes", molecule.DefaultProfile(hw.CPU)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := b.Register("matmul", molecule.DefaultProfile(hw.DPU)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Restrict machine 0 to CPU-only and machine 1 to DPU-only eligibility:
	// the chain pyaes→matmul then has no single home and must split 0→1.
	restrictKinds(b, 0, hw.CPU)
	restrictKinds(b, 1, hw.DPU)

	var res molecule.ChainResult
	var err error
	b.Env.Spawn("client", func(p *sim.Proc) {
		res, err = b.InvokeChain(p, []string{"pyaes", "matmul"}, molecule.ChainOptions{})
	})
	b.Run(1)
	if err != nil {
		t.Fatalf("InvokeChain: %v", err)
	}
	split := false
	for _, e := range res.EdgeLatency {
		if e >= b.IC.Lookahead() {
			split = true
		}
	}
	if !split {
		t.Fatalf("chain did not pay an interconnect hop despite disjoint machine kinds (edges=%v)", res.EdgeLatency)
	}
	for i, n := range b.Nodes() {
		if n.Served() == 0 && i == len(b.Nodes())-1 {
			t.Fatalf("split chain completion not attributed (served=%v)", servedOf(b))
		}
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight after run = %d, want 0", got)
	}
}

// TestBossFailover: kill a machine's PUs mid-run; its traffic must fail
// over to the surviving machine via the boss, and after Revive+Readmit the
// machine serves again.
func TestBossFailover(t *testing.T) {
	b := newTestBoss(t, 2, hw.Config{}, 0, "pyaes")
	// Find the rendezvous home so we kill the machine actually serving.
	var home *Node
	var score uint64
	for _, n := range b.Nodes() {
		if s := rendezvous("pyaes", n.Domain); home == nil || s > score {
			home, score = n, s
		}
	}
	other := b.Nodes()[0]
	if other == home {
		other = b.Nodes()[1]
	}

	// The fault plan lives on the home machine's own domain: the kill fires
	// there at a scheduled virtual time, never as a cross-domain mutation.
	pl := faults.NewPlan(home.Env, 1)
	home.RT.AttachFaults(pl)
	killAt := sim.Time(2 * time.Second)
	home.Env.At(killAt, func() {
		for _, pu := range home.HW.PUs() {
			pl.Kill(pu.ID)
		}
	})

	var warmErr, postErr error
	var warmWorker, postWorker int
	b.Env.Spawn("client", func(p *sim.Proc) {
		if _, warmWorker, warmErr = b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1}); warmErr != nil {
			return
		}
		p.Sleep(time.Duration(killAt) - time.Duration(p.Now()) + time.Second)
		_, postWorker, postErr = b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1})
	})
	b.Run(1)
	if warmErr != nil {
		t.Fatalf("warm-up invoke: %v", warmErr)
	}
	if warmWorker != home.ID() {
		t.Fatalf("warm-up served by machine %d, want rendezvous home %d", warmWorker, home.ID())
	}
	if postErr != nil {
		t.Fatalf("post-kill invoke did not fail over: %v", postErr)
	}
	if postWorker != other.ID() {
		t.Fatalf("post-kill request served by machine %d, want survivor %d", postWorker, other.ID())
	}
	if !home.Down() {
		t.Fatalf("boss did not mark the killed machine down")
	}

	// Revive at quiescence (the group is idle between runs), readmit, and
	// verify the home serves again.
	for _, pu := range home.HW.PUs() {
		pl.Revive(pu.ID)
	}
	if err := b.Readmit(home.ID()); err != nil {
		t.Fatalf("Readmit: %v", err)
	}
	var revivedWorker int
	var revivedErr error
	b.Env.Spawn("client2", func(p *sim.Proc) {
		_, revivedWorker, revivedErr = b.InvokeDetailed(p, "pyaes", molecule.InvokeOptions{PU: -1})
	})
	b.Run(1)
	if revivedErr != nil {
		t.Fatalf("post-revive invoke: %v", revivedErr)
	}
	if revivedWorker != home.ID() {
		t.Fatalf("post-revive request served by machine %d, want readmitted home %d", revivedWorker, home.ID())
	}
}

// TestBossDrainUnderLoad: draining a machine mid-burst must not strand its
// inflight requests, and new requests must avoid it.
func TestBossDrainUnderLoad(t *testing.T) {
	const n = 8
	b := newTestBoss(t, 2, hw.Config{}, 2, "pyaes")
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		b.Env.Spawn(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			_, errs[i] = b.Invoke(p, "pyaes", molecule.InvokeOptions{PU: -1})
		})
	}
	b.Env.At(sim.Time(50*time.Millisecond), func() {
		if err := b.Drain(0); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	b.Run(1)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed across drain: %v", i, err)
		}
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight after drain run = %d, want 0", got)
	}
}

// TestBossDeterministicAcrossWorkers is the tentpole's core invariant: the
// cluster soak fingerprint and the loadgen stats must be byte-identical at
// every OS worker count.
func TestBossDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultSoakConfig(3)
	cfg.RatePerSec = 120
	cfg.Duration = 1 * time.Second
	cfg.Capacity = 8

	counts := []int{0, 1, 2, 4, runtime.NumCPU()}
	var want string
	for _, w := range counts {
		res, err := Soak(cfg, w)
		if err != nil {
			t.Fatalf("Soak(workers=%d): %v", w, err)
		}
		fp := res.Fingerprint()
		if want == "" {
			want = fp
			if res.Stats.Requests == 0 {
				t.Fatalf("soak produced no requests")
			}
			if res.Stats.Errors != 0 {
				t.Fatalf("soak produced %d errors: %s", res.Stats.Errors, fp)
			}
			continue
		}
		if fp != want {
			t.Fatalf("workers=%d fingerprint diverged:\n  got  %s\n  want %s", w, fp, want)
		}
	}
}

// TestBossSaturatedIdleFailsQueue: a cluster with zero capacity must fail
// queued requests deterministically instead of deadlocking.
func TestBossSaturatedIdleFailsQueue(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 0, "pyaes")
	b.nodes[0].capacity = 0 // hasRoom() is always false
	var err error
	b.Env.Spawn("client", func(p *sim.Proc) {
		_, err = b.Invoke(p, "pyaes", molecule.InvokeOptions{PU: -1})
	})
	b.Run(1)
	if !errors.Is(err, errClusterSaturated) {
		t.Fatalf("want errClusterSaturated, got %v", err)
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

// TestBossUnregisteredFunction: a request for an unknown function errors
// without charging any inflight window.
func TestBossUnregisteredFunction(t *testing.T) {
	b := newTestBoss(t, 1, hw.Config{}, 0)
	var err error
	b.Env.Spawn("client", func(p *sim.Proc) {
		_, err = b.Invoke(p, "nope", molecule.InvokeOptions{PU: -1})
	})
	b.Run(1)
	if err == nil {
		t.Fatalf("want error for unregistered function")
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

func servedOf(b *Boss) []int {
	out := make([]int, len(b.Nodes()))
	for i, n := range b.Nodes() {
		out[i] = n.Served()
	}
	return out
}
