package localos

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/params"
	"repro/internal/sim"
)

func newTestOS(kind hw.PUKind) (*sim.Env, *OS) {
	env := sim.NewEnv()
	pu := &hw.PU{Kind: kind, Name: "test", Speed: 1}
	return env, New(env, pu)
}

func TestSpawnChargesCost(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	env.Spawn("x", func(p *sim.Proc) {
		pr := os.Spawn(p, "worker")
		if pr == nil || pr.PID == 0 {
			t.Fatal("spawn returned invalid process")
		}
		if p.Now() != sim.Time(os.Costs.SpawnBase) {
			t.Errorf("spawn cost = %v, want %v", p.Now(), os.Costs.SpawnBase)
		}
	})
	env.Run()
	if os.NumProcesses() != 1 {
		t.Errorf("processes = %d, want 1", os.NumProcesses())
	}
}

func TestDPUCostsScaled(t *testing.T) {
	_, cpuOS := newTestOS(hw.CPU)
	_, dpuOS := newTestOS(hw.DPU)
	if dpuOS.Costs.FIFOOp != params.FIFOOpDPU || cpuOS.Costs.FIFOOp != params.FIFOOpCPU {
		t.Error("FIFO costs not per-PU")
	}
	if dpuOS.Costs.ForkBase <= cpuOS.Costs.ForkBase {
		t.Error("DPU fork not slower than CPU fork")
	}
}

func TestForkRequiresSingleThread(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	env.Spawn("x", func(p *sim.Proc) {
		parent := os.Spawn(p, "rt")
		parent.Threads = 4
		if _, err := os.Fork(p, parent, "child"); err == nil {
			t.Error("fork of multi-threaded process succeeded")
		}
		parent.Threads = 1
		child, err := os.Fork(p, parent, "child")
		if err != nil {
			t.Fatal(err)
		}
		if child.Threads != 1 {
			t.Error("child not single-threaded")
		}
	})
	env.Run()
}

func TestForkSharesMemoryCOW(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	env.Spawn("x", func(p *sim.Proc) {
		parent := os.Spawn(p, "rt")
		vpn := parent.AS.Map(100)
		child, err := os.Fork(p, parent, "child")
		if err != nil {
			t.Fatal(err)
		}
		if child.AS.RSSPages() != 100 {
			t.Errorf("child RSS = %d, want 100", child.AS.RSSPages())
		}
		before := p.Now()
		os.Touch(p, child, vpn, 10)
		faultTime := p.Now().Sub(before)
		if faultTime != 10*os.Costs.PageFault {
			t.Errorf("fault time = %v, want %v", faultTime, 10*os.Costs.PageFault)
		}
		// Touching again: no faults, no time.
		before = p.Now()
		os.Touch(p, child, vpn, 10)
		if p.Now() != before {
			t.Error("re-touch charged fault time")
		}
	})
	env.Run()
}

func TestForkInheritsNamespaceAndCgroup(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	env.Spawn("x", func(p *sim.Proc) {
		parent := os.Spawn(p, "rt")
		ns := os.NewNamespace("tmpl")
		cg := os.NewCgroup("tmpl", 2, 1<<28)
		os.JoinNamespace(p, parent, ns)
		os.JoinCgroup(p, parent, cg, true)
		child, _ := os.Fork(p, parent, "c")
		if child.NS != ns || child.CG != cg {
			t.Error("child did not inherit namespace/cgroup")
		}
	})
	env.Run()
}

func TestForkExitedParentFails(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	env.Spawn("x", func(p *sim.Proc) {
		parent := os.Spawn(p, "rt")
		os.Exit(parent)
		if _, err := os.Fork(p, parent, "c"); err == nil {
			t.Error("fork of exited process succeeded")
		}
		if !parent.Exited() {
			t.Error("Exited() false after Exit")
		}
	})
	env.Run()
}

func TestExitReleasesMemoryAndIdempotent(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	env.Spawn("x", func(p *sim.Proc) {
		parent := os.Spawn(p, "rt")
		vpn := parent.AS.Map(50)
		child, _ := os.Fork(p, parent, "c")
		os.Exit(parent)
		os.Exit(parent) // idempotent
		if got := child.AS.PSSPages(); got != 50 {
			t.Errorf("child PSS after parent exit = %v, want 50", got)
		}
		_ = vpn
	})
	env.Run()
	if os.NumProcesses() != 1 {
		t.Errorf("processes = %d, want 1", os.NumProcesses())
	}
}

func TestCgroupJoinCostMutexVsSemaphore(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	env.Spawn("x", func(p *sim.Proc) {
		pr := os.Spawn(p, "rt")
		cg := os.NewCgroup("fc", 1, 1<<27)
		start := p.Now()
		os.JoinCgroup(p, pr, cg, false)
		slow := p.Now().Sub(start)
		start = p.Now()
		os.JoinCgroup(p, pr, cg, true)
		fast := p.Now().Sub(start)
		if slow <= fast {
			t.Errorf("semaphore join (%v) not slower than mutex join (%v)", slow, fast)
		}
		if slow != params.CgroupCpusetSemaphoreTime || fast != params.CgroupCpusetMutexTime {
			t.Errorf("join costs = %v/%v, want %v/%v", slow, fast,
				params.CgroupCpusetSemaphoreTime, params.CgroupCpusetMutexTime)
		}
	})
	env.Run()
}

func TestFIFORoundTrip(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	f := os.CreateFIFO("pipe", 8)
	var got Message
	env.Spawn("reader", func(p *sim.Proc) {
		m, ok := f.Read(p)
		if !ok {
			t.Error("read failed")
		}
		got = m
	})
	env.Spawn("writer", func(p *sim.Proc) {
		f.Write(p, Message{From: "w", Kind: "req", Payload: []byte("hi")})
	})
	env.Run()
	if string(got.Payload) != "hi" || got.Kind != "req" {
		t.Errorf("got %+v", got)
	}
	if got.Size() != 2 {
		t.Errorf("size = %d, want 2", got.Size())
	}
}

func TestFIFOChargesPerOpCost(t *testing.T) {
	env, os := newTestOS(hw.DPU)
	f := os.CreateFIFO("pipe", 1)
	var readerDone sim.Time
	env.Spawn("w", func(p *sim.Proc) { f.Write(p, Message{}) })
	env.Spawn("r", func(p *sim.Proc) {
		f.Read(p)
		readerDone = p.Now()
	})
	env.Run()
	// Writer syscall then reader syscall; both at DPU cost. The reader's
	// read completes after its own syscall cost (write is buffered).
	if readerDone < sim.Time(params.FIFOOpDPU) {
		t.Errorf("reader done at %v, want >= one DPU FIFO op (%v)", readerDone, params.FIFOOpDPU)
	}
}

func TestFIFONamespaceIsPerOS(t *testing.T) {
	env := sim.NewEnv()
	os1 := New(env, &hw.PU{Kind: hw.CPU, Name: "cpu"})
	os2 := New(env, &hw.PU{Kind: hw.DPU, Name: "dpu"})
	os1.CreateFIFO("same-name", 1)
	if _, err := os2.OpenFIFO("same-name"); err == nil {
		t.Error("FIFO visible across OS instances — multi-OS isolation broken")
	}
	if _, err := os1.OpenFIFO("same-name"); err != nil {
		t.Error("FIFO not visible in its own OS")
	}
}

func TestCreateFIFOIdempotent(t *testing.T) {
	_, os := newTestOS(hw.CPU)
	a := os.CreateFIFO("f", 4)
	b := os.CreateFIFO("f", 99)
	if a != b {
		t.Error("CreateFIFO created a second FIFO with the same name")
	}
}

func TestRemoveFIFOWakesReaders(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	f := os.CreateFIFO("f", 0)
	env.Spawn("r", func(p *sim.Proc) {
		if _, ok := f.Read(p); ok {
			t.Error("read on removed FIFO returned ok")
		}
	})
	env.Spawn("rm", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		os.RemoveFIFO("f")
	})
	env.Run()
	if _, err := os.OpenFIFO("f"); err == nil {
		t.Error("removed FIFO still open-able")
	}
	if env.LiveProcs() != 0 {
		t.Errorf("blocked procs remain: %d", env.LiveProcs())
	}
}

// TestRemoveRecyclesFIFO: Remove unlinks the name, and the next CreateFIFO
// reuses the storage open and empty.
func TestRemoveRecyclesFIFO(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	env.Spawn("x", func(p *sim.Proc) {
		old := os.CreateFIFO("old", 4)
		old.Write(p, Message{Kind: "stale"})
		old.Close()
		old.Remove()
		if os.NumFIFOs() != 0 {
			t.Errorf("NumFIFOs = %d after Remove, want 0", os.NumFIFOs())
		}
		if _, err := os.OpenFIFO("old"); err == nil {
			t.Error("removed FIFO still open-able")
		}
		f := os.CreateFIFO("new", 1)
		if f != old {
			t.Fatal("CreateFIFO did not reuse the removed FIFO")
		}
		if f.Name != "new" || f.Len() != 0 {
			t.Errorf("reused FIFO = %q with %d queued, want \"new\" and empty", f.Name, f.Len())
		}
		if !f.Write(p, Message{Kind: "fresh"}) {
			t.Fatal("write to the reused FIFO reported closed")
		}
		if m, ok := f.TryRead(p); !ok || m.Kind != "fresh" {
			t.Fatalf("reused FIFO read = %q, %v; want the fresh message", m.Kind, ok)
		}
		if g, err := os.OpenFIFO("new"); err != nil || g != f {
			t.Errorf("OpenFIFO(new) = %v, %v", g, err)
		}
	})
	env.Run()
}

func TestTryRead(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	f := os.CreateFIFO("f", 2)
	env.Spawn("x", func(p *sim.Proc) {
		if _, ok := f.TryRead(p); ok {
			t.Error("TryRead on empty FIFO returned ok")
		}
		if p.Now() != 0 {
			t.Error("failed TryRead charged syscall time")
		}
		f.Write(p, Message{Kind: "a"})
		m, ok := f.TryRead(p)
		if !ok || m.Kind != "a" {
			t.Error("TryRead missed buffered message")
		}
	})
	env.Run()
}

func TestSpawnFromImage(t *testing.T) {
	env, os := newTestOS(hw.CPU)
	env.Spawn("x", func(p *sim.Proc) {
		donor := os.Spawn(p, "donor")
		donor.AS.Map(32)
		start := p.Now()
		pr := os.SpawnFromImage(p, "restored", donor.AS.Fork(), 3)
		if p.Now().Sub(start) != os.Costs.SpawnBase {
			t.Error("SpawnFromImage did not charge spawn cost")
		}
		if pr.Threads != 3 || pr.AS.RSSPages() != 32 {
			t.Errorf("restored process: threads=%d rss=%d", pr.Threads, pr.AS.RSSPages())
		}
		if pr.AS.SharedPages() != 32 {
			t.Error("restored image not shared with donor")
		}
		if zero := os.SpawnFromImage(p, "z", donor.AS.Fork(), 0); zero.Threads != 1 {
			t.Error("thread clamp broken")
		}
	})
	env.Run()
}
