package main

// The layer ladder: one microbenchmark per layer's public entry point, from
// the sim kernel up to an HTTP invoke, each measured with testing.Benchmark.
// A speedup on a workload should show on the rung of the layer it came from.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/httpd"
	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/molecule"
	"repro/internal/sim"
	"repro/internal/sim/simbench"
	"repro/internal/xpu"
)

type rung struct {
	name string
	fn   func(*testing.B)
}

var ladder = []rung{
	{"sim.sleep", simbench.Sleep},
	{"sim.sleep_contended", simbench.SleepContended},
	{"sim.spawn", simbench.Spawn},
	{"sim.chan_pingpong", simbench.ChanPingPong},
	{"sim.cross_shard_send", simbench.CrossShardSend},
	{"mem.fork_fanout", simbench.AddressSpaceForkFanout},
	{"xpu.fifo_write_remote", benchFIFOWriteRemote},
	{"molecule.invoke_warm", func(b *testing.B) { benchMoleculeInvoke(b, false) }},
	{"molecule.invoke_cold", func(b *testing.B) { benchMoleculeInvoke(b, true) }},
	{"cluster.invoke_warm", benchClusterInvoke},
	{"httpd.invoke", benchHTTPInvoke},
}

// benchFIFOWriteRemote is one 64-byte nIPC message from a DPU process into
// a host FIFO, read back on the host: the write path every cross-PU chain
// edge takes.
func benchFIFOWriteRemote(b *testing.B) {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 1})
	shim := xpu.NewShim(env, m)
	cpuOS, dpuOS := localos.New(env, m.PU(0)), localos.New(env, m.PU(1))
	cpu, dpu := shim.AddNode(m.PU(0), cpuOS), shim.AddNode(m.PU(1), dpuOS)
	cpuX := cpu.Register(cpuOS.NewDetachedProcess("reader"))
	dpuX := dpu.Register(dpuOS.NewDetachedProcess("writer"))
	env.Spawn("bench", func(p *sim.Proc) {
		rfd, err := cpu.FIFOInit(p, cpuX, "f", 4)
		if err != nil {
			b.Fatalf("FIFOInit: %v", err)
		}
		if err := cpu.GrantCap(p, cpuX, dpuX, xpu.ObjID{Kind: "fifo", UUID: "f"}, xpu.PermWrite); err != nil {
			b.Fatalf("GrantCap: %v", err)
		}
		wfd, err := dpu.FIFOConnect(p, dpuX, "f")
		if err != nil {
			b.Fatalf("FIFOConnect: %v", err)
		}
		msg := localos.Message{Payload: make([]byte, 64)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := wfd.Write(p, msg); err != nil {
				b.Fatalf("Write: %v", err)
			}
			if _, err := rfd.Read(p); err != nil {
				b.Fatalf("Read: %v", err)
			}
		}
	})
	env.Run()
}

// benchMoleculeInvoke is one helloworld invoke on a booted CPU+DPU machine:
// a warm-pool hit, or a forced cold start through cfork.
func benchMoleculeInvoke(b *testing.B, cold bool) {
	env, rt, err := bootMachine(1, molecule.DefaultOptions(), []string{"helloworld"})
	if err != nil {
		b.Fatal(err)
	}
	env.Spawn("bench", func(p *sim.Proc) {
		opts := molecule.InvokeOptions{PU: -1, ForceCold: cold}
		if _, err := rt.Invoke(p, "helloworld", opts); err != nil {
			b.Fatal(err) // first cold start outside the timed region
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Invoke(p, "helloworld", opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	env.Run()
}

// benchClusterInvoke is one warm Boss.Invoke on a one-machine cluster:
// routing, two interconnect hops and the machine-side invoke.
func benchClusterInvoke(b *testing.B) {
	boss, err := cluster.NewBoss(cluster.BossConfig{Machines: 1, Opts: molecule.DefaultOptions()})
	if err != nil {
		b.Fatal(err)
	}
	if err := boss.Register("helloworld"); err != nil {
		b.Fatal(err)
	}
	boss.Env.Spawn("bench", func(p *sim.Proc) {
		opts := molecule.DefaultInvokeOptions()
		if _, err := boss.Invoke(p, "helloworld", opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := boss.Invoke(p, "helloworld", opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	boss.Run(1)
}

// benchHTTPInvoke is one POST /invoke through the server's handler, with
// an in-memory recorder in place of a socket.
func benchHTTPInvoke(b *testing.B) {
	s, err := httpd.NewServer(hw.Config{}, molecule.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	serve := func(url string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST %s: %d %s", url, rec.Code, rec.Body)
		}
	}
	serve("/deploy?fn=helloworld")
	serve("/invoke?fn=helloworld")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve("/invoke?fn=helloworld")
	}
}
