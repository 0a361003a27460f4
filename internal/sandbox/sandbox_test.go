package sandbox

import (
	"math"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/localos"
	"repro/internal/params"
	"repro/internal/sim"
)

func cpuRig() (*sim.Env, *ContainerRuntime) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{})
	os := localos.New(env, m.PU(0))
	return env, NewContainerRuntime(os)
}

func fpgaRig() (*sim.Env, *hw.Machine, *RunF) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{FPGAs: 1})
	fpga := m.PUsOfKind(hw.FPGA)[0]
	rf, err := NewRunF(m, fpga, m.PU(0))
	if err != nil {
		panic(err)
	}
	return env, m, rf
}

func TestStateString(t *testing.T) {
	if StateRunning.String() != "running" || State(99).String() == "" {
		t.Error("State String broken")
	}
}

func TestContainerLifecycle(t *testing.T) {
	env, cr := cpuRig()
	env.Spawn("x", func(p *sim.Proc) {
		spec := Spec{ID: "s1", FuncID: "hello", Lang: lang.Python}
		if err := CreateOne(p, cr, spec); err != nil {
			t.Fatal(err)
		}
		if st := StateOne(cr, "s1"); st.State != StateCreated {
			t.Errorf("state after create = %v", st.State)
		}
		if err := StartOne(p, cr, "s1"); err != nil {
			t.Fatal(err)
		}
		if st := StateOne(cr, "s1"); st.State != StateRunning {
			t.Errorf("state after start = %v", st.State)
		}
		sb := cr.Sandbox("s1")
		if sb.Inst == nil || sb.Inst.FuncID != "hello" {
			t.Error("instance not loaded with function")
		}
		if err := KillOne(p, cr, "s1", 9); err != nil {
			t.Fatal(err)
		}
		if st := StateOne(cr, "s1"); st.State != StateStopped {
			t.Errorf("state after kill = %v", st.State)
		}
		if err := DeleteOne(p, cr, "s1"); err != nil {
			t.Fatal(err)
		}
		if st := StateOne(cr, "s1"); st.State != StateUnknown {
			t.Errorf("state after delete = %v", st.State)
		}
	})
	env.Run()
}

func TestContainerErrors(t *testing.T) {
	env, cr := cpuRig()
	env.Spawn("x", func(p *sim.Proc) {
		if err := CreateOne(p, cr, Spec{ID: "a", FuncID: "f"}); err == nil {
			t.Error("create without language accepted")
		}
		spec := Spec{ID: "a", FuncID: "f", Lang: lang.Python}
		CreateOne(p, cr, spec)
		if err := CreateOne(p, cr, spec); err == nil {
			t.Error("duplicate create accepted")
		}
		if err := StartOne(p, cr, "missing"); err == nil {
			t.Error("start of missing sandbox accepted")
		}
		StartOne(p, cr, "a")
		if err := StartOne(p, cr, "a"); err == nil {
			t.Error("double start accepted")
		}
		if err := DeleteOne(p, cr, "missing"); err == nil {
			t.Error("delete of missing sandbox accepted")
		}
		if err := KillOne(p, cr, "missing", 9); err == nil {
			t.Error("kill of missing sandbox accepted")
		}
	})
	env.Run()
}

func TestContainerColdVsCfork(t *testing.T) {
	startLatency := func(mode StartMode, prewarm bool) time.Duration {
		env, cr := cpuRig()
		cr.Mode = mode
		cr.CpusetMutexPatch = true
		var d time.Duration
		env.Spawn("x", func(p *sim.Proc) {
			if mode == StartCfork {
				cr.EnsureTemplate(p, lang.Python) // template prepared off-path
			}
			if prewarm {
				cr.Prewarm(p, 1)
			}
			start := p.Now()
			CreateOne(p, cr, Spec{ID: "s", FuncID: "f", Lang: lang.Python})
			StartOne(p, cr, "s")
			d = p.Now().Sub(start)
		})
		env.Run()
		return d
	}
	cold := startLatency(StartBoot, false)
	forked := startLatency(StartCfork, true)
	if ratio := float64(cold) / float64(forked); ratio < 8 {
		t.Errorf("cfork speedup %.1fx, want ~10x (cold=%v forked=%v)", ratio, cold, forked)
	}
	// With a prepared container pool, cfork start is <10ms (the paper's
	// headline: first container-level fork under 10ms).
	if forked > 10*time.Millisecond {
		t.Errorf("cfork start = %v, want <10ms", forked)
	}
}

func TestPrewarmPool(t *testing.T) {
	env, cr := cpuRig()
	env.Spawn("x", func(p *sim.Proc) {
		cr.Prewarm(p, 3)
		if cr.PoolSize() != 3 {
			t.Errorf("pool = %d, want 3", cr.PoolSize())
		}
		// Creates consume the pool without paying create time.
		start := p.Now()
		CreateOne(p, cr, Spec{ID: "a", FuncID: "f", Lang: lang.Python})
		if p.Now() != start {
			t.Error("create with pooled container charged time")
		}
		if cr.PoolSize() != 2 {
			t.Errorf("pool = %d, want 2", cr.PoolSize())
		}
	})
	env.Run()
}

func TestTemplateReuse(t *testing.T) {
	env, cr := cpuRig()
	env.Spawn("x", func(p *sim.Proc) {
		t1, err := cr.EnsureTemplate(p, lang.Python)
		if err != nil {
			t.Fatal(err)
		}
		mark := p.Now()
		t2, err := cr.EnsureTemplate(p, lang.Python)
		if err != nil {
			t.Fatal(err)
		}
		if t1 != t2 {
			t.Error("template rebooted")
		}
		if p.Now() != mark {
			t.Error("cached template charged boot time")
		}
		if cr.Template(lang.Node) != nil {
			t.Error("unbooted template non-nil")
		}
	})
	env.Run()
}

// --- runf -------------------------------------------------------------------

// TestFig10cStartupStaircase reproduces the FPGA startup breakdown:
// baseline (erase+load+prep) ≈ 20.3s, no-erase ≈ 3.8s, warm-image ≈ 1.9s,
// warm-sandbox ≈ 53ms.
func TestFig10cStartupStaircase(t *testing.T) {
	approx := func(got time.Duration, wantSec float64) bool {
		return math.Abs(got.Seconds()-wantSec) <= wantSec*0.1
	}

	// Baseline: erase-always policy, cold image, cold sandbox.
	env, _, rf := fpgaRig()
	var baseline, noErase, warmImage, warmSandbox time.Duration
	env.Spawn("x", func(p *sim.Proc) {
		rf.Policy = EraseAlways
		// Pre-dirty the fabric so the baseline pays the erase.
		rf.Create(p, []Spec{{ID: "w0", FuncID: "other"}})
		start := p.Now()
		rf.Create(p, []Spec{{ID: "s1", FuncID: "vmult"}})
		rf.Start(p, []string{"s1"})
		baseline = p.Now().Sub(start)

		// No-erase: Molecule's policy.
		rf.Policy = NoErase
		start = p.Now()
		rf.Create(p, []Spec{{ID: "s2", FuncID: "vmult"}})
		rf.Start(p, []string{"s2"})
		noErase = p.Now().Sub(start)

		// Warm image: function already in the programmed image, sandbox not
		// yet prepared.
		rf.Create(p, []Spec{{ID: "s3", FuncID: "vmult"}, {ID: "s4", FuncID: "madd"}})
		rf.Start(p, []string{"s3"})
		start = p.Now()
		rf.Start(p, []string{"s4"}) // image warm, sandbox cold
		warmImage = p.Now().Sub(start)

		// Warm sandbox: invoke on a prepared sandbox.
		start = p.Now()
		if err := rf.Invoke(p, "s4", 4096, 4096, 52500*time.Microsecond, InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
		warmSandbox = p.Now().Sub(start)
	})
	env.Run()

	if !approx(baseline, 20.3) {
		t.Errorf("baseline = %v, want ~20.3s", baseline)
	}
	if !approx(noErase, 3.8) {
		t.Errorf("no-erase = %v, want ~3.8s", noErase)
	}
	if !approx(warmImage, 1.9) {
		t.Errorf("warm-image = %v, want ~1.9s", warmImage)
	}
	if warmSandbox < 50*time.Millisecond || warmSandbox > 60*time.Millisecond {
		t.Errorf("warm-sandbox = %v, want ~53ms", warmSandbox)
	}
}

func TestRunFVectorCreateCachesAll(t *testing.T) {
	env, _, rf := fpgaRig()
	env.Spawn("x", func(p *sim.Proc) {
		specs := []Spec{
			{ID: "a", FuncID: "madd"}, {ID: "b", FuncID: "mmult"}, {ID: "c", FuncID: "mscale"},
		}
		if err := rf.Create(p, specs); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"madd", "mmult", "mscale"} {
			if !rf.Cached(k) {
				t.Errorf("kernel %q not cached after vector create", k)
			}
		}
		progs, _ := rf.Device().ProgramCounts()
		if progs != 1 {
			t.Errorf("programs = %d, want 1 (one flush for the whole vector)", progs)
		}
	})
	env.Run()
}

func TestRunFDeleteIsFreeAndDeferred(t *testing.T) {
	env, _, rf := fpgaRig()
	env.Spawn("x", func(p *sim.Proc) {
		rf.Create(p, []Spec{{ID: "a", FuncID: "k1"}})
		start := p.Now()
		if err := rf.Delete(p, []string{"a"}); err != nil {
			t.Fatal(err)
		}
		if p.Now() != start {
			t.Error("FPGA delete charged time — must be free")
		}
		if StateOne(rf, "a").State != StateDeleted {
			t.Error("delete did not update state")
		}
		// The configuration is still on the fabric until the next create.
		if !rf.Cached("k1") {
			t.Error("kernel evicted by delete — destroy must be deferred to next create")
		}
		// Next create replaces it.
		rf.Create(p, []Spec{{ID: "b", FuncID: "k2"}})
		if rf.Cached("k1") {
			t.Error("old kernel survived replacement create")
		}
	})
	env.Run()
}

func TestRunFCreateReplacesLiveSandboxes(t *testing.T) {
	env, _, rf := fpgaRig()
	env.Spawn("x", func(p *sim.Proc) {
		rf.Create(p, []Spec{{ID: "a", FuncID: "k1"}})
		rf.Start(p, []string{"a"})
		rf.Create(p, []Spec{{ID: "b", FuncID: "k2"}})
		if err := rf.Start(p, []string{"a"}); err == nil {
			t.Error("start of replaced sandbox succeeded")
		}
	})
	env.Run()
}

func TestRunFInvokeRequiresPrepared(t *testing.T) {
	env, _, rf := fpgaRig()
	env.Spawn("x", func(p *sim.Proc) {
		rf.Create(p, []Spec{{ID: "a", FuncID: "k1"}})
		if err := rf.Invoke(p, "a", 1, 1, time.Millisecond, InvokeOptions{}); err == nil {
			t.Error("invoke before start succeeded")
		}
		rf.Start(p, []string{"a"})
		if err := rf.Invoke(p, "a", 1, 1, time.Millisecond, InvokeOptions{}); err != nil {
			t.Error(err)
		}
		if err := rf.Invoke(p, "missing", 1, 1, time.Millisecond, InvokeOptions{}); err == nil {
			t.Error("invoke of missing sandbox succeeded")
		}
	})
	env.Run()
}

// TestRunFRetentionZeroCopy verifies the §4.3 shared-memory chain: with
// retained input, the invoke skips the host→device transfer and is strictly
// faster for large payloads.
func TestRunFRetentionZeroCopy(t *testing.T) {
	env, _, rf := fpgaRig()
	rf.Device().SetRetention(true)
	const payload = 8 << 20
	var copied, retained time.Duration
	env.Spawn("x", func(p *sim.Proc) {
		rf.Create(p, []Spec{{ID: "a", FuncID: "k1"}})
		rf.Start(p, []string{"a"})
		start := p.Now()
		if err := rf.Invoke(p, "a", payload, payload, time.Millisecond, InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
		copied = p.Now().Sub(start)

		if err := rf.MarkRetained("k1"); err != nil {
			t.Fatal(err)
		}
		start = p.Now()
		if err := rf.Invoke(p, "a", payload, payload, time.Millisecond,
			InvokeOptions{InputRetained: true, RetainOutput: true}); err != nil {
			t.Fatal(err)
		}
		retained = p.Now().Sub(start)
	})
	env.Run()
	if ratio := float64(copied) / float64(retained); ratio < 1.5 {
		t.Errorf("retention speedup %.2fx for %dB, want >1.5x (copied=%v retained=%v)",
			ratio, payload, copied, retained)
	}
}

func TestRunFRetainedInputRequiresValidBank(t *testing.T) {
	env, _, rf := fpgaRig()
	env.Spawn("x", func(p *sim.Proc) {
		rf.Create(p, []Spec{{ID: "a", FuncID: "k1"}})
		rf.Start(p, []string{"a"})
		if err := rf.Invoke(p, "a", 1, 1, time.Millisecond, InvokeOptions{InputRetained: true}); err == nil {
			t.Error("retained-input invoke with invalid bank succeeded")
		}
	})
	env.Run()
}

func TestRunFStartConcurrentPrep(t *testing.T) {
	env, _, rf := fpgaRig()
	var d time.Duration
	env.Spawn("x", func(p *sim.Proc) {
		rf.Create(p, []Spec{{ID: "a", FuncID: "k1"}, {ID: "b", FuncID: "k2"}, {ID: "c", FuncID: "k3"}})
		start := p.Now()
		if err := rf.Start(p, []string{"a", "b", "c"}); err != nil {
			t.Fatal(err)
		}
		d = p.Now().Sub(start)
	})
	env.Run()
	if d != params.FPGASandboxPrep {
		t.Errorf("vector start took %v, want one concurrent prep %v", d, params.FPGASandboxPrep)
	}
}

func TestNewRunFRejectsNonFPGA(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{})
	if _, err := NewRunF(m, m.PU(0), m.PU(0)); err == nil {
		t.Error("RunF accepted a CPU")
	}
}

// --- rung -------------------------------------------------------------------

func TestRunGLifecycleAndInvoke(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{GPUs: 1})
	gpu := m.PUsOfKind(hw.GPU)[0]
	rg, err := NewRunG(env, m, gpu, m.PU(0))
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("x", func(p *sim.Proc) {
		if err := rg.Create(p, []Spec{{ID: "a", FuncID: "gemm"}, {ID: "b", FuncID: "conv"}}); err != nil {
			t.Fatal(err)
		}
		if err := rg.Start(p, []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
		if err := rg.Invoke(p, "a", 1<<20, 1<<20, 3*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		// Unlike runf, creating more sandboxes does not evict prior ones.
		if err := rg.Create(p, []Spec{{ID: "c", FuncID: "relu"}}); err != nil {
			t.Fatal(err)
		}
		if st := StateOne(rg, "a"); st.State != StateRunning {
			t.Errorf("GPU sandbox a = %v after unrelated create, want running", st.State)
		}
		if err := rg.Delete(p, []string{"b"}); err != nil {
			t.Fatal(err)
		}
		if st := StateOne(rg, "b"); st.State != StateDeleted {
			t.Error("GPU delete did not update state")
		}
		if err := rg.Invoke(p, "b", 1, 1, time.Millisecond); err == nil {
			t.Error("invoke of deleted GPU sandbox succeeded")
		}
	})
	env.Run()
}

func TestRunGErrors(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{GPUs: 1})
	gpu := m.PUsOfKind(hw.GPU)[0]
	if _, err := NewRunG(env, m, m.PU(0), m.PU(0)); err == nil {
		t.Error("RunG accepted a CPU")
	}
	rg, _ := NewRunG(env, m, gpu, m.PU(0))
	env.Spawn("x", func(p *sim.Proc) {
		if err := rg.Create(p, []Spec{{ID: "a"}}); err == nil {
			t.Error("GPU create without func-id accepted")
		}
		rg.Create(p, []Spec{{ID: "a", FuncID: "k"}})
		if err := rg.Create(p, []Spec{{ID: "a", FuncID: "k"}}); err == nil {
			t.Error("duplicate GPU create accepted")
		}
		if err := rg.Start(p, []string{"zzz"}); err == nil {
			t.Error("start of missing GPU sandbox accepted")
		}
	})
	env.Run()
}

// TestVectorizedInterfaceUniformity drives all three runtimes through the
// same Runtime interface — the property that lets Molecule manage
// heterogeneous functions without device-specific code.
func TestVectorizedInterfaceUniformity(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 1, FPGAs: 1, GPUs: 1})
	cpuOS := localos.New(env, m.PU(0))
	cr := NewContainerRuntime(cpuOS)
	rf, _ := NewRunF(m, m.PUsOfKind(hw.FPGA)[0], m.PU(0))
	rg, _ := NewRunG(env, m, m.PUsOfKind(hw.GPU)[0], m.PU(0))

	runtimes := []Runtime{cr, rf, rg}
	env.Spawn("x", func(p *sim.Proc) {
		for i, rt := range runtimes {
			spec := Spec{ID: "u", FuncID: "f", Lang: lang.Python}
			if err := rt.Create(p, []Spec{spec}); err != nil {
				t.Fatalf("runtime %d create: %v", i, err)
			}
			if err := rt.Start(p, []string{"u"}); err != nil {
				t.Fatalf("runtime %d start: %v", i, err)
			}
			if got := StateOne(rt, "u").State; got != StateRunning {
				t.Errorf("runtime %d state = %v, want running", i, got)
			}
			if err := rt.Kill(p, []string{"u"}, 15); err != nil {
				t.Fatalf("runtime %d kill: %v", i, err)
			}
			if err := rt.Delete(p, []string{"u"}); err != nil {
				t.Fatalf("runtime %d delete: %v", i, err)
			}
			all := rt.State(nil)
			for _, st := range all {
				if st.ID == "u" && st.State == StateRunning {
					t.Errorf("runtime %d: deleted sandbox still running", i)
				}
			}
		}
	})
	env.Run()
}

// TestRunFBankSharingSerializesExecution: with a single DRAM bank, three
// cached instances share it; the wrapper's bank lock keeps sharers from
// running concurrently even when regions would allow it.
func TestRunFBankSharingSerializesExecution(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{FPGAs: 1, FPGABanks: 1, FPGARegion: 4})
	rf, err := NewRunF(m, m.PUsOfKind(hw.FPGA)[0], m.PU(0))
	if err != nil {
		t.Fatal(err)
	}
	var last sim.Time
	env.Spawn("setup", func(p *sim.Proc) {
		if err := rf.Create(p, []Spec{{ID: "a", FuncID: "k1"}, {ID: "b", FuncID: "k2"}}); err != nil {
			t.Fatal(err)
		}
		if err := rf.Start(p, []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
		wg := sim.NewWaitGroup(env)
		for _, id := range []string{"a", "b"} {
			id := id
			wg.Add(1)
			env.Spawn("exec", func(ep *sim.Proc) {
				defer wg.Done()
				if err := rf.Invoke(ep, id, 64, 64, 10*time.Millisecond, InvokeOptions{}); err != nil {
					t.Error(err)
				}
				if ep.Now() > last {
					last = ep.Now()
				}
			})
		}
		wg.Wait(p)
	})
	env.Run()
	// Two 10ms kernels sharing one bank: the second waits for the first,
	// so the makespan covers >= 20ms of fabric time.
	if time.Duration(last) < 20*time.Millisecond {
		t.Errorf("sharers overlapped: makespan %v < 20ms of serialized fabric", time.Duration(last))
	}
	// Sanity: both kernels landed on the same (only) bank.
	if len(rf.Device().Banks()[0].Owners) != 2 {
		t.Errorf("bank owners = %v, want both kernels", rf.Device().Banks()[0].Owners)
	}
}

// TestAccelTableShared: runf and rung share one sandbox table. Running
// finds the running sandbox of a function with the smallest ID, as a
// State(nil) scan would, skips killed ones, and every verb's missing-ID
// error still names the device kind.
func TestAccelTableShared(t *testing.T) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{FPGAs: 1, GPUs: 1})
	rf, _ := NewRunF(m, m.PUsOfKind(hw.FPGA)[0], m.PU(0))
	rg, _ := NewRunG(env, m, m.PUsOfKind(hw.GPU)[0], m.PU(0))
	env.Spawn("x", func(p *sim.Proc) {
		for _, tc := range []struct {
			kind string
			rt   interface {
				Runtime
				Running(funcID string) (string, bool)
			}
		}{{"FPGA", rf}, {"GPU", rg}} {
			specs := []Spec{{ID: "s3", FuncID: "f"}, {ID: "s1", FuncID: "g"}, {ID: "s2", FuncID: "f"}}
			if err := tc.rt.Create(p, specs); err != nil {
				t.Fatal(err)
			}
			if id, ok := tc.rt.Running("f"); ok {
				t.Errorf("%s: created (not started) sandbox %q reported running", tc.kind, id)
			}
			if err := tc.rt.Start(p, []string{"s3", "s1", "s2"}); err != nil {
				t.Fatal(err)
			}
			if id, ok := tc.rt.Running("f"); !ok || id != "s2" {
				t.Errorf("%s: Running(f) = %q, %v; want s2", tc.kind, id, ok)
			}
			if err := KillOne(p, tc.rt, "s2", 9); err != nil {
				t.Fatal(err)
			}
			if id, ok := tc.rt.Running("f"); !ok || id != "s3" {
				t.Errorf("%s: Running(f) after killing s2 = %q, %v; want s3", tc.kind, id, ok)
			}
			if _, ok := tc.rt.Running("h"); ok {
				t.Errorf("%s: Running found an undeployed function", tc.kind)
			}
			want := `sandbox: no ` + tc.kind + ` sandbox "zzz"`
			for i, err := range []error{
				KillOne(p, tc.rt, "zzz", 9),
				DeleteOne(p, tc.rt, "zzz"),
				StartOne(p, tc.rt, "zzz"),
			} {
				if err == nil || err.Error() != want {
					t.Errorf("%s verb %d (kill, delete, start) on a missing sandbox: %v, want %q", tc.kind, i, err, want)
				}
			}
		}
	})
	env.Run()
}
