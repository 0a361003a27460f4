package hw

import (
	"math"
	"testing"
	"time"

	"repro/internal/params"
	"repro/internal/sim"
)

func testMachine(t *testing.T, cfg Config) (*sim.Env, *Machine) {
	t.Helper()
	env := sim.NewEnv()
	return env, Build(env, cfg)
}

func TestBuildTopology(t *testing.T) {
	_, m := testMachine(t, Config{DPUs: 2, FPGAs: 1, GPUs: 1})
	if got := len(m.PUs()); got != 5 {
		t.Fatalf("PUs = %d, want 5 (host + 2 DPU + FPGA + GPU)", got)
	}
	if m.PU(0).Kind != CPU {
		t.Error("PU 0 is not the host CPU")
	}
	if got := len(m.PUsOfKind(DPU)); got != 2 {
		t.Errorf("DPUs = %d, want 2", got)
	}
	l, ok := m.LinkBetween(0, 1)
	if !ok || l.Kind != LinkRDMA {
		t.Errorf("host-DPU link = %v,%v, want RDMA", l.Kind, ok)
	}
	fpga := m.PUsOfKind(FPGA)[0]
	l, ok = m.LinkBetween(0, fpga.ID)
	if !ok || l.Kind != LinkDMA {
		t.Errorf("host-FPGA link = %v,%v, want DMA", l.Kind, ok)
	}
	if fpga.Device == nil {
		t.Error("FPGA PU has no device model")
	}
	// DPU<->FPGA must be CPU-intercepted: two-hop latency.
	dl, ok := m.LinkBetween(1, fpga.ID)
	if !ok {
		t.Fatal("no DPU-FPGA route")
	}
	if dl.BaseLat != params.RDMABaseLatency+params.DMABaseLatency {
		t.Errorf("DPU-FPGA base latency %v, want two-hop sum %v",
			dl.BaseLat, params.RDMABaseLatency+params.DMABaseLatency)
	}
}

func TestPUOutOfRange(t *testing.T) {
	_, m := testMachine(t, Config{})
	if m.PU(99) != nil || m.PU(-1) != nil {
		t.Error("out-of-range PU lookup did not return nil")
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := Link{Kind: LinkRDMA, BaseLat: 10 * time.Microsecond, Bandwith: 1e9}
	if got := l.TransferTime(0); got != 10*time.Microsecond {
		t.Errorf("empty transfer = %v, want base 10us", got)
	}
	// 1e6 bytes at 1e9 B/s = 1ms.
	if got := l.TransferTime(1e6); got != 10*time.Microsecond+time.Millisecond {
		t.Errorf("1MB transfer = %v, want 1.01ms", got)
	}
}

func TestTransferAdvancesClock(t *testing.T) {
	env, m := testMachine(t, Config{DPUs: 1})
	var took sim.Time
	env.Spawn("xfer", func(p *sim.Proc) {
		if _, err := m.Transfer(p, 0, 1, 4096); err != nil {
			t.Error(err)
		}
		took = p.Now()
	})
	env.Run()
	bw := float64(params.RDMABandwidth)
	want := params.RDMABaseLatency + time.Duration(4096/bw*float64(time.Second))
	if time.Duration(took) != want {
		t.Errorf("transfer took %v, want %v", time.Duration(took), want)
	}
}

// TestTransferBatchAmortizesBase pins the vectorized-transfer contract: one
// base latency for the whole batch, every byte still charged, and the same
// error on a missing link.
func TestTransferBatchAmortizesBase(t *testing.T) {
	env, m := testMachine(t, Config{DPUs: 1})
	sizes := []int{4096, 4096, 4096, 4096}
	var batched, single sim.Time
	env.Spawn("xfer", func(p *sim.Proc) {
		start := p.Now()
		if _, err := m.TransferBatch(p, 0, 1, sizes); err != nil {
			t.Error(err)
		}
		batched = p.Now() - start
		start = p.Now()
		for _, n := range sizes {
			if _, err := m.Transfer(p, 0, 1, n); err != nil {
				t.Error(err)
			}
		}
		single = p.Now() - start
		// Empty batches are free and still report the link.
		start = p.Now()
		if l, err := m.TransferBatch(p, 0, 1, nil); err != nil || l.Kind != LinkRDMA {
			t.Errorf("empty batch: link %v err %v", l.Kind, err)
		}
		if p.Now() != start {
			t.Error("empty batch charged time")
		}
	})
	env.Run()
	l := Link{Kind: LinkRDMA, BaseLat: params.RDMABaseLatency, Bandwith: params.RDMABandwidth}
	if want := l.TransferTime(4 * 4096); time.Duration(batched) != want {
		t.Errorf("batched transfer took %v, want %v", time.Duration(batched), want)
	}
	if want := 4 * l.TransferTime(4096); time.Duration(single) != want {
		t.Errorf("per-message transfers took %v, want %v", time.Duration(single), want)
	}
	if batched >= single {
		t.Errorf("batching did not amortize: %v >= %v", batched, single)
	}

	env2 := sim.NewEnv()
	m2 := NewMachine(env2)
	m2.AddPU(&PU{Kind: CPU})
	m2.AddPU(&PU{Kind: DPU})
	env2.Spawn("x", func(p *sim.Proc) {
		if _, err := m2.TransferBatch(p, 0, 1, []int{1}); err == nil {
			t.Error("batch over missing link succeeded")
		}
	})
	env2.Run()
}

func TestTransferNoLink(t *testing.T) {
	env := sim.NewEnv()
	m := NewMachine(env)
	m.AddPU(&PU{Kind: CPU})
	m.AddPU(&PU{Kind: DPU})
	env.Spawn("x", func(p *sim.Proc) {
		if _, err := m.Transfer(p, 0, 1, 1); err == nil {
			t.Error("transfer over missing link succeeded")
		}
	})
	env.Run()
}

func TestComputeTimeSpeedFactor(t *testing.T) {
	cpu := &PU{Kind: CPU, Speed: 1.0}
	bf1 := &PU{Kind: DPU, Speed: params.BF1SpeedFactor}
	base := 100 * time.Millisecond
	if cpu.ComputeTime(base) != base {
		t.Error("CPU compute time scaled")
	}
	ratio := float64(bf1.ComputeTime(base)) / float64(base)
	if ratio < 4 || ratio > 7 {
		t.Errorf("BF-1 slowdown %.2fx outside the paper's 4-7x band", ratio)
	}
	zero := &PU{Speed: 0}
	if zero.ComputeTime(base) != base {
		t.Error("zero speed factor did not default to 1x")
	}
}

func TestNetworkTransferDPUPenalty(t *testing.T) {
	_, m := testMachine(t, Config{DPUs: 1})
	cpu := m.NetworkTransferTime(0, 0, 100)
	mixed := m.NetworkTransferTime(0, 1, 100)
	dpu := m.NetworkTransferTime(1, 1, 100)
	if !(cpu < mixed && mixed < dpu) {
		t.Errorf("network latency ordering cpu=%v mixed=%v dpu=%v violated", cpu, mixed, dpu)
	}
	ratio := float64(dpu) / float64(cpu)
	if ratio < 1.5 || ratio > 3 {
		t.Errorf("DPU-DPU network penalty %.2fx, want ~%.1fx", ratio, params.NetworkDPUPenalty)
	}
}

func TestPUKindStrings(t *testing.T) {
	if CPU.String() != "CPU" || FPGA.String() != "FPGA" || PUKind(9).String() == "" {
		t.Error("PUKind String broken")
	}
	if LinkRDMA.String() != "rdma" || LinkKind(9).String() == "" {
		t.Error("LinkKind String broken")
	}
	if !CPU.GeneralPurpose() || !DPU.GeneralPurpose() || FPGA.GeneralPurpose() {
		t.Error("GeneralPurpose classification wrong")
	}
}

// --- FPGA device -----------------------------------------------------------

func TestBuildImageResources(t *testing.T) {
	img, err := BuildImage("v1", []string{"madd", "mmult", "mscale"})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Has("madd") || img.Has("nope") {
		t.Error("image membership wrong")
	}
	want := WrapperBase().Add(PerInstance()).Add(PerInstance()).Add(PerInstance())
	if img.Resources != want {
		t.Errorf("resources = %+v, want %+v", img.Resources, want)
	}
}

func TestBuildImageOverflow(t *testing.T) {
	many := make([]string, 300) // 300 instances exceed BRAM budget
	for i := range many {
		many[i] = "k"
	}
	if _, err := BuildImage("huge", many); err == nil {
		t.Error("oversized image synthesized successfully")
	}
}

// TestTable4Utilization verifies the Table 4 reproduction: a 12-instance
// wrapper takes ~10.1% LUT, ~8.3% REG, ~22.5% BRAM, ~11.5% DSP of an F1.
func TestTable4Utilization(t *testing.T) {
	kernels := make([]string, 12)
	for i := range kernels {
		kernels[i] = "k"
	}
	img, err := BuildImage("tab4", kernels)
	if err != nil {
		t.Fatal(err)
	}
	util := img.Resources.Utilization(F1Resources())
	want := [4]float64{0.101, 0.083, 0.225, 0.115}
	for i, w := range want {
		if math.Abs(util[i]-w) > 0.01 {
			t.Errorf("resource %d utilization = %.3f, want ~%.3f", i, util[i], w)
		}
	}
}

func TestProgramEraseTimings(t *testing.T) {
	env := sim.NewEnv()
	dev := NewFPGADevice(env, 2, 2)
	img, _ := BuildImage("a", []string{"k1"})
	img2, _ := BuildImage("b", []string{"k2"})
	var coldT, reprogT sim.Time
	env.Spawn("prog", func(p *sim.Proc) {
		start := p.Now()
		dev.Program(p, img, true) // device starts erased: no erase needed
		coldT = sim.Time(p.Now().Sub(start))

		start = p.Now()
		dev.Program(p, img2, true) // baseline path: erase + load
		reprogT = sim.Time(p.Now().Sub(start))
	})
	env.Run()
	if time.Duration(coldT) != params.FPGAImageLoadTime {
		t.Errorf("first program took %v, want load time %v", time.Duration(coldT), params.FPGAImageLoadTime)
	}
	if time.Duration(reprogT) != params.FPGAEraseTime+params.FPGAImageLoadTime {
		t.Errorf("erase+program took %v, want %v", time.Duration(reprogT), params.FPGAEraseTime+params.FPGAImageLoadTime)
	}
	if progs, erases := dev.ProgramCounts(); progs != 2 || erases != 1 {
		t.Errorf("counts = (%d,%d), want (2,1)", progs, erases)
	}
}

func TestNoEraseReprogramSkipsEraseTime(t *testing.T) {
	env := sim.NewEnv()
	dev := NewFPGADevice(env, 2, 2)
	img, _ := BuildImage("a", []string{"k1"})
	img2, _ := BuildImage("b", []string{"k2"})
	var d time.Duration
	env.Spawn("prog", func(p *sim.Proc) {
		dev.Program(p, img, false)
		start := p.Now()
		dev.Program(p, img2, false) // Molecule's no-erase delete/replace
		d = p.Now().Sub(start)
	})
	env.Run()
	if d != params.FPGAImageLoadTime {
		t.Errorf("no-erase reprogram took %v, want %v", d, params.FPGAImageLoadTime)
	}
}

func TestExecuteRequiresProgrammedKernel(t *testing.T) {
	env := sim.NewEnv()
	dev := NewFPGADevice(env, 1, 1)
	img, _ := BuildImage("a", []string{"k1"})
	env.Spawn("x", func(p *sim.Proc) {
		if err := dev.Execute(p, "k1", time.Millisecond); err == nil {
			t.Error("execute on blank device succeeded")
		}
		dev.Program(p, img, false)
		if err := dev.Execute(p, "k1", time.Millisecond); err != nil {
			t.Errorf("execute failed: %v", err)
		}
		if err := dev.Execute(p, "other", time.Millisecond); err == nil {
			t.Error("execute of unprogrammed kernel succeeded")
		}
	})
	env.Run()
}

func TestRegionsLimitConcurrency(t *testing.T) {
	env := sim.NewEnv()
	dev := NewFPGADevice(env, 4, 2) // 2 regions
	img, _ := BuildImage("a", []string{"k"})
	var last sim.Time
	env.Spawn("setup", func(p *sim.Proc) {
		dev.Program(p, img, false)
		for i := 0; i < 4; i++ {
			p.Env().Spawn("exec", func(p *sim.Proc) {
				if err := dev.Execute(p, "k", 10*time.Millisecond); err != nil {
					t.Error(err)
				}
				last = p.Now()
			})
		}
	})
	env.Run()
	// 4 executions, 2 regions → 2 waves of 10ms after programming.
	want := sim.Time(params.FPGAImageLoadTime + 20*time.Millisecond)
	if last != want {
		t.Errorf("last execution finished at %v, want %v", last, want)
	}
}

func TestDRAMBankAssignment(t *testing.T) {
	env := sim.NewEnv()
	dev := NewFPGADevice(env, 2, 1)
	b1, err := dev.AssignBank("f1")
	if err != nil {
		t.Fatal(err)
	}
	again, err := dev.AssignBank("f1")
	if err != nil || again != b1 {
		t.Error("re-assign did not return the same bank")
	}
	if _, err := dev.AssignBank("f2"); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.AssignBank("f3"); err == nil {
		t.Error("assignment beyond bank count succeeded")
	}
	dev.ReleaseBank("f1")
	if _, err := dev.AssignBank("f3"); err != nil {
		t.Error("bank not reusable after release")
	}
	if dev.BankFor("f2") == nil || dev.BankFor("f1") != nil {
		t.Error("BankFor lookup wrong")
	}
}

func TestDataRetentionAcrossReprogram(t *testing.T) {
	env := sim.NewEnv()
	dev := NewFPGADevice(env, 2, 1)
	imgA, _ := BuildImage("a", []string{"prod"})
	imgB, _ := BuildImage("b", []string{"prod", "cons"})
	env.Spawn("x", func(p *sim.Proc) {
		// Without retention: data lost on reprogram.
		dev.Program(p, imgA, false)
		bank, _ := dev.AssignBank("prod")
		bank.Data = []byte("payload")
		bank.Valid = true
		dev.Program(p, imgB, false)
		if bank.Valid {
			t.Error("bank survived reprogram without retention")
		}

		// With retention: data persists (the §4.3 zero-copy optimization).
		dev.SetRetention(true)
		bank, _ = dev.AssignBank("prod")
		bank.Data = []byte("payload")
		bank.Valid = true
		dev.Program(p, imgA, false)
		if !bank.Valid || string(bank.Data) != "payload" {
			t.Error("bank did not retain data with retention enabled")
		}
	})
	env.Run()
}

func TestBankOwnershipFollowsImage(t *testing.T) {
	env := sim.NewEnv()
	dev := NewFPGADevice(env, 2, 1)
	dev.SetRetention(true)
	imgA, _ := BuildImage("a", []string{"k1"})
	imgB, _ := BuildImage("b", []string{"k2"}) // k1 evicted
	env.Spawn("x", func(p *sim.Proc) {
		dev.Program(p, imgA, false)
		dev.AssignBank("k1")
		dev.Program(p, imgB, false)
		if dev.BankFor("k1") != nil {
			t.Error("bank still owned by evicted kernel")
		}
	})
	env.Run()
}

// TestLinkContentionSerializesBandwidth: two concurrent bulk DMA transfers
// in the same direction share the PCIe medium, so the second finishes
// roughly one bandwidth-phase later; small control messages (base latency
// only) are unaffected.
func TestLinkContentionSerializesBandwidth(t *testing.T) {
	env, m := testMachine(t, Config{FPGAs: 1})
	fpga := m.PUsOfKind(FPGA)[0].ID
	const size = 80 << 20 // 80MB: 10ms of bandwidth at 8GB/s
	finish := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("xfer", func(p *sim.Proc) {
			if _, err := m.Transfer(p, 0, fpga, size); err != nil {
				t.Error(err)
			}
			finish[i] = p.Now()
		})
	}
	env.Run()
	l, _ := m.LinkBetween(0, fpga)
	one := l.TransferTime(size)
	if time.Duration(finish[0]) != one {
		t.Errorf("first transfer took %v, want %v", time.Duration(finish[0]), one)
	}
	want := one + (one - l.BaseLat) // second waits for the first's bandwidth phase
	if time.Duration(finish[1]) != want {
		t.Errorf("second transfer finished at %v, want %v (serialized)", time.Duration(finish[1]), want)
	}

	// Opposite directions do not contend (full duplex).
	env2, m2 := testMachine(t, Config{FPGAs: 1})
	fp2 := m2.PUsOfKind(FPGA)[0].ID
	var aDone, bDone sim.Time
	env2.Spawn("fwd", func(p *sim.Proc) {
		m2.Transfer(p, 0, fp2, size)
		aDone = p.Now()
	})
	env2.Spawn("rev", func(p *sim.Proc) {
		m2.Transfer(p, fp2, 0, size)
		bDone = p.Now()
	})
	env2.Run()
	if aDone != bDone || time.Duration(aDone) != one {
		t.Errorf("duplex transfers = %v/%v, want both %v", time.Duration(aDone), time.Duration(bDone), one)
	}
}
