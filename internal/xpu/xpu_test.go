package xpu

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/sim"
)

// rig is a CPU + 1 DPU machine with shim nodes and one registered process on
// each PU.
type rig struct {
	env     *sim.Env
	m       *hw.Machine
	shim    *Shim
	cpuNode *Node
	dpuNode *Node
	cpuProc *localos.Process
	dpuProc *localos.Process
	cpuXPID XPID
	dpuXPID XPID
}

func newRig(t *testing.T) *rig {
	t.Helper()
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 1})
	shim := NewShim(env, m)
	cpuOS := localos.New(env, m.PU(0))
	dpuOS := localos.New(env, m.PU(1))
	cn := shim.AddNode(m.PU(0), cpuOS)
	dn := shim.AddNode(m.PU(1), dpuOS)
	r := &rig{env: env, m: m, shim: shim, cpuNode: cn, dpuNode: dn}
	r.cpuProc = cpuOS.NewDetachedProcess("cpu-app")
	r.dpuProc = dpuOS.NewDetachedProcess("dpu-app")
	r.cpuXPID = cn.Register(r.cpuProc)
	r.dpuXPID = dn.Register(r.dpuProc)
	return r
}

func TestXPIDGloballyUnique(t *testing.T) {
	r := newRig(t)
	if r.cpuXPID == r.dpuXPID {
		t.Error("same local PID on two PUs produced the same xpu_pid")
	}
	if r.cpuXPID.PU == r.dpuXPID.PU {
		t.Error("xpu_pid does not encode the PU")
	}
	if r.cpuXPID.String() == "" {
		t.Error("empty String()")
	}
}

func TestTransportModeOrdering(t *testing.T) {
	base := TransportBase.CallOverhead(hw.DPU)
	mpsc := TransportMPSC.CallOverhead(hw.DPU)
	poll := TransportPoll.CallOverhead(hw.DPU)
	if !(poll < mpsc && mpsc < base) {
		t.Errorf("DPU XPUcall overheads not ordered: poll=%v mpsc=%v base=%v", poll, mpsc, base)
	}
	// §5: naive XPUcall ≈100us on BF-1 and ≈20us on host CPU.
	if base < 90*time.Microsecond || base > 120*time.Microsecond {
		t.Errorf("DPU base overhead %v outside ~100us", base)
	}
	cpuBase := TransportBase.CallOverhead(hw.CPU)
	if cpuBase < 15*time.Microsecond || cpuBase > 30*time.Microsecond {
		t.Errorf("CPU base overhead %v outside ~20us", cpuBase)
	}
	if TransportPoll.String() != "poll" || TransportMode(9).String() == "" {
		t.Error("TransportMode String broken")
	}
}

func TestDefaultTransports(t *testing.T) {
	r := newRig(t)
	if r.cpuNode.Mode != TransportBase {
		t.Error("CPU node default transport is not Base (paper applies optimizations only on devices)")
	}
	if r.dpuNode.Mode != TransportPoll {
		t.Error("DPU node default transport is not Poll")
	}
}

func TestFIFOInitConnectReadWrite(t *testing.T) {
	r := newRig(t)
	var got localos.Message
	r.env.Spawn("cpu-side", func(p *sim.Proc) {
		fd, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "f-1", 4)
		if err != nil {
			t.Fatal(err)
		}
		// Grant the DPU process write access.
		obj := ObjID{Kind: "fifo", UUID: "f-1"}
		if err := r.cpuNode.GrantCap(p, r.cpuXPID, r.dpuXPID, obj, PermWrite); err != nil {
			t.Fatal(err)
		}
		m, err := fd.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		got = m
	})
	r.env.SpawnAfter(time.Millisecond, "dpu-side", func(p *sim.Proc) {
		fd, err := r.dpuNode.FIFOConnect(p, r.dpuXPID, "f-1")
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.Write(p, localos.Message{Kind: "req", Payload: []byte("hello")}); err != nil {
			t.Fatal(err)
		}
	})
	r.env.Run()
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q, want hello", got.Payload)
	}
}

// TestUnlinkReleasesAndRecycles: unlinking both descriptors of a FIFO drops
// its UUID and both capabilities without charging time, and the next
// FIFOInit and FIFOConnect reuse the host objects with nothing carried over:
// a message left on the old FIFO is gone, and a read-only grant on the new
// one still refuses a write.
func TestUnlinkReleasesAndRecycles(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("x", func(p *sim.Proc) {
		groups0, caps0 := r.shim.NumCaps()
		home, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "old", 4)
		if err != nil {
			t.Fatal(err)
		}
		old := ObjID{Kind: "fifo", UUID: "old"}
		if err := r.cpuNode.GrantCap(p, r.cpuXPID, r.dpuXPID, old, PermRead|PermWrite); err != nil {
			t.Fatal(err)
		}
		peer, err := r.dpuNode.FIFOConnect(p, r.dpuXPID, "old")
		if err != nil {
			t.Fatal(err)
		}
		if err := peer.Write(p, localos.Message{Kind: "stale"}); err != nil {
			t.Fatal(err)
		}
		before := p.Now()
		home.Unlink()
		peer.Unlink()
		if p.Now() != before {
			t.Errorf("Unlink charged %v", p.Now()-before)
		}
		if n := r.shim.NumFIFOs(); n != 0 {
			t.Errorf("NumFIFOs = %d after Unlink, want 0", n)
		}
		if groups, caps := r.shim.NumCaps(); groups != groups0 || caps != caps0 {
			t.Errorf("NumCaps = (%d, %d) after Unlink, want (%d, %d)", groups, caps, groups0, caps0)
		}

		fresh, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "new", 4)
		if err != nil {
			t.Fatal(err)
		}
		if fresh != home && fresh != peer {
			t.Error("FIFOInit did not reuse a released descriptor")
		}
		if fresh.UUID() != "new" || fresh.fifo.Len() != 0 || fresh.fifo.closed {
			t.Errorf("reused FIFO %q holds %d messages (closed %v), want \"new\", empty and open",
				fresh.UUID(), fresh.fifo.Len(), fresh.fifo.closed)
		}
		obj := ObjID{Kind: "fifo", UUID: "new"}
		if err := r.cpuNode.GrantCap(p, r.cpuXPID, r.dpuXPID, obj, PermRead); err != nil {
			t.Fatal(err)
		}
		dfd, err := r.dpuNode.FIFOConnect(p, r.dpuXPID, "new")
		if err != nil {
			t.Fatal(err)
		}
		if err := dfd.Write(p, localos.Message{}); err == nil {
			t.Error("write with a read-only capability succeeded on a reused descriptor")
		}
		if err := fresh.Write(p, localos.Message{Kind: "fresh"}); err != nil {
			t.Fatal(err)
		}
		if m, err := fresh.Read(p); err != nil || m.Kind != "fresh" {
			t.Errorf("read = %q, %v; want the fresh message", m.Kind, err)
		}
	})
	r.env.Run()
}

// TestUnregisterDropsCapGroup: Unregister is the inverse of Register.
func TestUnregisterDropsCapGroup(t *testing.T) {
	r := newRig(t)
	groups, _ := r.shim.NumCaps()
	r.cpuNode.Unregister(r.cpuProc)
	if g, _ := r.shim.NumCaps(); g != groups-1 {
		t.Errorf("NumCaps groups = %d after Unregister, want %d", g, groups-1)
	}
}

func TestFIFOUUIDCollision(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("x", func(p *sim.Proc) {
		if _, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "dup", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.dpuNode.FIFOInit(p, r.dpuXPID, "dup", 1); err == nil {
			t.Error("duplicate global UUID accepted")
		}
	})
	r.env.Run()
}

func TestFIFOPermissionDenied(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("x", func(p *sim.Proc) {
		fd, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "priv", 1)
		if err != nil {
			t.Fatal(err)
		}
		// DPU process has no capability: connect must fail.
		if _, err := r.dpuNode.FIFOConnect(p, r.dpuXPID, "priv"); err == nil {
			t.Error("connect without capability succeeded")
		}
		// Grant read-only; write must still fail.
		obj := ObjID{Kind: "fifo", UUID: "priv"}
		if err := r.cpuNode.GrantCap(p, r.cpuXPID, r.dpuXPID, obj, PermRead); err != nil {
			t.Fatal(err)
		}
		dfd, err := r.dpuNode.FIFOConnect(p, r.dpuXPID, "priv")
		if err != nil {
			t.Fatal(err)
		}
		if err := dfd.Write(p, localos.Message{}); err == nil {
			t.Error("write with read-only capability succeeded")
		}
		_ = fd
	})
	r.env.Run()
}

func TestGrantRequiresOwner(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("x", func(p *sim.Proc) {
		if _, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "f", 1); err != nil {
			t.Fatal(err)
		}
		obj := ObjID{Kind: "fifo", UUID: "f"}
		// DPU process is not the owner.
		if err := r.dpuNode.GrantCap(p, r.dpuXPID, r.dpuXPID, obj, PermRead); err == nil {
			t.Error("non-owner grant succeeded")
		}
	})
	r.env.Run()
}

// TestGrantCapOnDeadFIFOFails: a grant on a FIFO that was aborted, closed
// or never existed fails like FIFOConnect does, instead of adding an entry
// no Unlink removes; the peer never gains the permission, and after Unlink
// NumCaps is back at its idle value.
func TestGrantCapOnDeadFIFOFails(t *testing.T) {
	for _, end := range []string{"abort", "close", "unknown"} {
		t.Run(end, func(t *testing.T) {
			r := newRig(t)
			r.env.Spawn("x", func(p *sim.Proc) {
				groups0, caps0 := r.shim.NumCaps()
				fd, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "dead", 1)
				if err != nil {
					t.Fatal(err)
				}
				obj := ObjID{Kind: "fifo", UUID: "dead"}
				switch end {
				case "abort":
					fd.Abort()
				case "close":
					if err := fd.Close(p); err != nil {
						t.Fatal(err)
					}
				case "unknown":
					obj.UUID = "never-made"
				}
				err = r.cpuNode.GrantCap(p, r.cpuXPID, r.dpuXPID, obj, PermWrite)
				if err == nil || !strings.Contains(err.Error(), "no FIFO") {
					t.Errorf("GrantCap (%s): err = %v, want no FIFO", end, err)
				}
				if r.shim.HasCap(r.dpuXPID, obj, PermWrite) {
					t.Errorf("peer holds write after a refused grant (%s)", end)
				}
				fd.Unlink()
				if groups, caps := r.shim.NumCaps(); groups != groups0 || caps != caps0 {
					t.Errorf("NumCaps = (%d, %d) after Unlink, want (%d, %d)", groups, caps, groups0, caps0)
				}
			})
			r.env.Run()
		})
	}
}

// TestRevokeCapFromNonHolderIsNoop: revoking from a process that never held
// the capability creates no zero-permission entry, so Unlink leaves NumCaps
// at its idle value.
func TestRevokeCapFromNonHolderIsNoop(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("x", func(p *sim.Proc) {
		groups0, caps0 := r.shim.NumCaps()
		fd, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "f", 1)
		if err != nil {
			t.Fatal(err)
		}
		obj := ObjID{Kind: "fifo", UUID: "f"}
		if err := r.cpuNode.RevokeCap(p, r.cpuXPID, r.dpuXPID, obj, PermWrite); err != nil {
			t.Fatal(err)
		}
		if groups, caps := r.shim.NumCaps(); groups != groups0 || caps != caps0+1 {
			t.Errorf("NumCaps = (%d, %d) after revoking from a non-holder, want (%d, %d): the owner only", groups, caps, groups0, caps0+1)
		}
		fd.Unlink()
		if groups, caps := r.shim.NumCaps(); groups != groups0 || caps != caps0 {
			t.Errorf("NumCaps = (%d, %d) after Unlink, want (%d, %d)", groups, caps, groups0, caps0)
		}
	})
	r.env.Run()
}

func TestRevokeCap(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("x", func(p *sim.Proc) {
		if _, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "f", 1); err != nil {
			t.Fatal(err)
		}
		obj := ObjID{Kind: "fifo", UUID: "f"}
		r.cpuNode.GrantCap(p, r.cpuXPID, r.dpuXPID, obj, PermRead|PermWrite)
		if err := r.cpuNode.RevokeCap(p, r.cpuXPID, r.dpuXPID, obj, PermWrite); err != nil {
			t.Fatal(err)
		}
		if r.shim.HasCap(r.dpuXPID, obj, PermWrite) {
			t.Error("revoked permission still held")
		}
		if !r.shim.HasCap(r.dpuXPID, obj, PermRead) {
			t.Error("revoke removed unrelated permission")
		}
	})
	r.env.Run()
}

func TestFIFOCloseLazySync(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("x", func(p *sim.Proc) {
		fd, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "f", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.Close(p); err != nil {
			t.Fatal(err)
		}
		if _, err := r.dpuNode.FIFOConnect(p, r.dpuXPID, "f"); err == nil {
			t.Error("connect to closed FIFO succeeded")
		}
	})
	r.env.Run()
	st := r.shim.Stats()
	if st.LazyQueued != 1 {
		t.Errorf("lazy queued = %d, want 1 (close must not sync eagerly)", st.LazyQueued)
	}
	if st.LazyFlushes != 0 {
		t.Errorf("lazy flushes = %d, want 0 (batch not full)", st.LazyFlushes)
	}
}

func TestLazyBatchFlushes(t *testing.T) {
	r := newRig(t)
	r.shim.lazyBatchSize = 4
	r.env.Spawn("x", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			uuid := string(rune('a' + i))
			fd, err := r.cpuNode.FIFOInit(p, r.cpuXPID, uuid, 1)
			if err != nil {
				t.Fatal(err)
			}
			fd.Close(p)
		}
	})
	r.env.Run()
	if got := r.shim.Stats().LazyFlushes; got != 2 {
		t.Errorf("lazy flushes = %d, want 2 (8 closes / batch of 4)", got)
	}
}

// TestNIPCLatencyShape reproduces the Fig 8 relationships: on the DPU,
// nIPC-Poll beats the local Linux FIFO (it bypasses the slow device kernel)
// but stays slower than the CPU's local FIFO; Base and MPSC are 1.6-2.8x
// worse than the DPU's Linux FIFO for small messages.
func TestNIPCLatencyShape(t *testing.T) {
	measure := func(mode TransportMode, size int) time.Duration {
		r := newRig(t)
		r.dpuNode.Mode = mode
		var lat time.Duration
		r.env.Spawn("cpu", func(p *sim.Proc) {
			fd, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "f", 8)
			if err != nil {
				t.Fatal(err)
			}
			obj := ObjID{Kind: "fifo", UUID: "f"}
			r.cpuNode.GrantCap(p, r.cpuXPID, r.dpuXPID, obj, PermWrite)
			fd.Read(p)
		})
		r.env.SpawnAfter(10*time.Millisecond, "dpu", func(p *sim.Proc) {
			fd, err := r.dpuNode.FIFOConnect(p, r.dpuXPID, "f")
			if err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			if err := fd.Write(p, localos.Message{Payload: make([]byte, size)}); err != nil {
				t.Fatal(err)
			}
			lat = p.Now().Sub(start)
		})
		r.env.Run()
		return lat
	}

	poll := measure(TransportPoll, 64)
	mpsc := measure(TransportMPSC, 64)
	base := measure(TransportBase, 64)
	linuxDPU := localos.CostsFor(&hw.PU{Kind: hw.DPU}).FIFOOp
	linuxCPU := localos.CostsFor(&hw.PU{Kind: hw.CPU}).FIFOOp

	if !(poll < mpsc && mpsc < base) {
		t.Errorf("ordering violated: poll=%v mpsc=%v base=%v", poll, mpsc, base)
	}
	if poll > linuxDPU {
		t.Errorf("nIPC-Poll (%v) not faster than DPU Linux FIFO (%v)", poll, linuxDPU)
	}
	if poll < linuxCPU {
		t.Errorf("nIPC-Poll (%v) faster than CPU Linux FIFO (%v) — too optimistic", poll, linuxCPU)
	}
	if poll < 20*time.Microsecond || poll > 35*time.Microsecond {
		t.Errorf("nIPC-Poll = %v, paper reports ~25us", poll)
	}
	ratio := float64(base) / float64(linuxDPU)
	if ratio < 1.6 || ratio > 5.5 {
		t.Errorf("nIPC-Base / Linux-DPU = %.2f, want within the paper's elevated band", ratio)
	}
	// Larger messages take longer.
	if big := measure(TransportPoll, 2048); big <= poll {
		t.Errorf("2KB write (%v) not slower than 64B write (%v)", big, poll)
	}
}

func TestXSpawnRunsBodyOnTarget(t *testing.T) {
	r := newRig(t)
	var ranOn hw.PUID = -1
	var childX XPID
	r.env.Spawn("cpu", func(p *sim.Proc) {
		x, err := r.cpuNode.XSpawn(p, r.dpuNode.PU.ID, "executor", nil,
			func(sp *sim.Proc, node *Node, self *localos.Process) {
				ranOn = node.PU.ID
			})
		if err != nil {
			t.Fatal(err)
		}
		childX = x
	})
	r.env.Run()
	if ranOn != r.dpuNode.PU.ID {
		t.Errorf("body ran on PU %d, want DPU %d", ranOn, r.dpuNode.PU.ID)
	}
	if childX.PU != r.dpuNode.PU.ID {
		t.Errorf("child xpu_pid PU = %d, want %d", childX.PU, r.dpuNode.PU.ID)
	}
}

func TestXSpawnGrantsCapvExplicitly(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("cpu", func(p *sim.Proc) {
		if _, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "shared", 1); err != nil {
			t.Fatal(err)
		}
		obj := ObjID{Kind: "fifo", UUID: "shared"}
		// Child with capv gets access; a second child without does not.
		x1, err := r.cpuNode.XSpawn(p, r.dpuNode.PU.ID, "withcap",
			map[ObjID]Perm{obj: PermWrite}, nil)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := r.cpuNode.XSpawn(p, r.dpuNode.PU.ID, "nocap", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !r.shim.HasCap(x1, obj, PermWrite) {
			t.Error("capv capability not granted")
		}
		if r.shim.HasCap(x2, obj, PermWrite) {
			t.Error("implicit permission inheritance — must be explicit only")
		}
	})
	r.env.Run()
}

// TestXSpawnCapvFollowsGrantRules: a capv grant makes the child a holder
// of the FIFO, so the FIFO's last Unlink drops the child's capability and
// NumCaps's entries return to their idle value; a capv naming an unknown
// or closed FIFO is refused before anything is spawned.
func TestXSpawnCapvFollowsGrantRules(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("cpu", func(p *sim.Proc) {
		_, caps0 := r.shim.NumCaps()
		fd, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "shared", 1)
		if err != nil {
			t.Fatal(err)
		}
		obj := ObjID{Kind: "fifo", UUID: "shared"}
		x, err := r.cpuNode.XSpawn(p, r.dpuNode.PU.ID, "child", map[ObjID]Perm{obj: PermWrite}, nil)
		if err != nil {
			t.Fatal(err)
		}
		fd.Unlink()
		if r.shim.HasCap(x, obj, PermWrite) {
			t.Error("child still holds its capv capability after the FIFO's last Unlink")
		}
		if _, caps := r.shim.NumCaps(); caps != caps0 {
			t.Errorf("NumCaps entries = %d after Unlink, want %d", caps, caps0)
		}

		closed, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "closed", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := closed.Close(p); err != nil {
			t.Fatal(err)
		}
		procs := r.dpuNode.OS.NumProcesses()
		for _, uuid := range []string{"never-made", "closed"} {
			capv := map[ObjID]Perm{{Kind: "fifo", UUID: uuid}: PermRead}
			if _, err := r.cpuNode.XSpawn(p, r.dpuNode.PU.ID, "refused", capv, nil); err == nil || !strings.Contains(err.Error(), "no FIFO") {
				t.Errorf("XSpawn with capv on %s FIFO: err = %v, want no FIFO", uuid, err)
			}
		}
		if got := r.dpuNode.OS.NumProcesses(); got != procs {
			t.Errorf("refused XSpawn left %d processes, want %d", got, procs)
		}
		closed.Unlink()
	})
	r.env.Run()
}

func TestXSpawnUnknownPU(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("cpu", func(p *sim.Proc) {
		if _, err := r.cpuNode.XSpawn(p, hw.PUID(42), "x", nil, nil); err == nil {
			t.Error("xSpawn to unknown PU succeeded")
		}
	})
	r.env.Run()
}

func TestVirtualNodeForAccelerator(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{FPGAs: 1})
	shim := NewShim(env, m)
	cpuOS := localos.New(env, m.PU(0))
	shim.AddNode(m.PU(0), cpuOS)
	fpga := m.PUsOfKind(hw.FPGA)[0]
	vn := shim.AddVirtualNode(fpga, m.PU(0), cpuOS)
	if !vn.Virtual() {
		t.Error("virtual node not flagged virtual")
	}
	if shim.Node(fpga.ID) != vn {
		t.Error("virtual node not registered under accelerator PU ID")
	}
	if vn.Host.ID != 0 {
		t.Error("virtual node not hosted on the CPU")
	}
}

func TestGetXPUPID(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("x", func(p *sim.Proc) {
		x := r.cpuNode.GetXPUPID(p, r.cpuProc)
		if x != r.cpuXPID {
			t.Errorf("GetXPUPID = %v, want %v", x, r.cpuXPID)
		}
		if p.Now() == 0 {
			t.Error("GetXPUPID charged no XPUcall cost")
		}
	})
	r.env.Run()
}

func TestImmediateSyncCounted(t *testing.T) {
	r := newRig(t)
	r.env.Spawn("x", func(p *sim.Proc) {
		r.cpuNode.FIFOInit(p, r.cpuXPID, "f", 1)
		obj := ObjID{Kind: "fifo", UUID: "f"}
		r.cpuNode.GrantCap(p, r.cpuXPID, r.dpuXPID, obj, PermRead)
	})
	r.env.Run()
	if got := r.shim.Stats().ImmediateSyncs; got != 2 {
		t.Errorf("immediate syncs = %d, want 2 (init + grant)", got)
	}
}

func TestPermHas(t *testing.T) {
	p := PermRead | PermWrite
	if !p.Has(PermRead) || !p.Has(PermWrite) || p.Has(PermOwner) {
		t.Error("Perm.Has broken")
	}
	if !p.Has(PermRead | PermWrite) {
		t.Error("Perm.Has multi-bit broken")
	}
}

func TestEagerDeletesBroadcastImmediately(t *testing.T) {
	r := newRig(t)
	r.shim.EagerDeletes = true
	r.env.Spawn("x", func(p *sim.Proc) {
		fd, err := r.cpuNode.FIFOInit(p, r.cpuXPID, "f", 1)
		if err != nil {
			t.Fatal(err)
		}
		fd.Close(p)
	})
	r.env.Run()
	st := r.shim.Stats()
	if st.LazyQueued != 0 {
		t.Errorf("eager mode queued %d lazy updates", st.LazyQueued)
	}
	if st.ImmediateSyncs != 2 { // init + eager delete
		t.Errorf("immediate syncs = %d, want 2", st.ImmediateSyncs)
	}
}

func TestHandlerThreadsSerializeXPUCalls(t *testing.T) {
	makespan := func(threads int) time.Duration {
		r := newRig(t)
		r.dpuNode.SetHandlerThreads(threads)
		want := threads
		if want < 1 {
			want = 1 // SetHandlerThreads clamps
		}
		if got := r.dpuNode.HandlerThreads(); got != want {
			t.Fatalf("HandlerThreads = %d, want %d", got, want)
		}
		wg := sim.NewWaitGroup(r.env)
		var end sim.Time
		for i := 0; i < 8; i++ {
			i := i
			wg.Add(1)
			r.env.Spawn("caller", func(p *sim.Proc) {
				defer wg.Done()
				if _, err := r.dpuNode.FIFOInit(p, r.dpuXPID, string(rune('a'+i)), 1); err != nil {
					t.Error(err)
				}
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
		r.env.Spawn("waiter", func(p *sim.Proc) { wg.Wait(p) })
		r.env.Run()
		return time.Duration(end)
	}
	one := makespan(1)
	four := makespan(4)
	if four >= one {
		t.Errorf("4 handler threads (%v) not faster than 1 (%v)", four, one)
	}
	if r := makespan(0); r <= 0 { // clamps to 1
		t.Error("zero threads broke the node")
	}
}
