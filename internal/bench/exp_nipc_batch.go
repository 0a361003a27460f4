package bench

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/localos"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xpu"
)

// The batched-nIPC experiment quantifies FD.WriteBatch against per-message
// Writes: a vector of messages crosses the interconnect for one XPUcall and
// one base latency, so the fixed costs amortize across the batch while the
// bandwidth term stays proportional to the bytes moved. It is intentionally
// NOT in the experiment registry — batching is opt-in and the golden report
// pins the per-message protocol — and is reached via
// `molecule-bench -scenario nipc` instead (BENCH_nipc.json is the committed
// snapshot).

// NIPCBatchPoint compares one batch size: the virtual time for k individual
// xfifo_writes vs one xfifo_writev of the same k messages.
type NIPCBatchPoint struct {
	BatchSize     int     `json:"batch_size"`
	PerMessageUS  float64 `json:"per_message_us"`     // k individual Writes, total
	BatchedUS     float64 `json:"batched_us"`         // one WriteBatch(k), total
	BatchedPerMsg float64 `json:"batched_per_msg_us"` // BatchedUS / k
	Speedup       float64 `json:"speedup"`            // PerMessageUS / BatchedUS
	ReadBatchedUS float64 `json:"read_batched_us"`    // one ReadBatch draining k
	ReadPerMsgUS  float64 `json:"read_per_message_us"`
	ReadSpeedup   float64 `json:"read_speedup"`
}

// NIPCBatchSweep is one payload size's batch-size sweep.
type NIPCBatchSweep struct {
	Mode     string           `json:"mode"`
	MsgBytes int              `json:"msg_bytes"`
	Points   []NIPCBatchPoint `json:"points"`
}

// nipcBatchRig mirrors the Fig 8 rig: a DPU caller against a CPU-homed
// XPU-FIFO, under the DPU's default polling transport.
type nipcBatchRig struct {
	env  *sim.Env
	cpuN *xpu.Node
	dpuN *xpu.Node
	cpuX xpu.XPID
	dpuX xpu.XPID
}

func newNIPCBatchRig() *nipcBatchRig {
	env := sim.NewEnv()
	m := hw.Build(env, hw.Config{DPUs: 1})
	shim := xpu.NewShim(env, m)
	cpuOS := localos.New(env, m.PU(0))
	dpuOS := localos.New(env, m.PU(1))
	r := &nipcBatchRig{env: env}
	r.cpuN = shim.AddNode(m.PU(0), cpuOS)
	r.dpuN = shim.AddNode(m.PU(1), dpuOS)
	r.cpuX = r.cpuN.Register(cpuOS.NewDetachedProcess("cpu-end"))
	r.dpuX = r.dpuN.Register(dpuOS.NewDetachedProcess("dpu-end"))
	return r
}

// nipcBatchPoint measures one (payload, batch size) cell. All four numbers
// come from the same simulation so the FIFO and link state are identical
// across the compared paths.
func nipcBatchPoint(msgBytes, k int) NIPCBatchPoint {
	r := newNIPCBatchRig()
	var perMsg, batched, readPer, readBatched time.Duration
	r.env.Spawn("bench", func(p *sim.Proc) {
		if _, err := r.cpuN.FIFOInit(p, r.cpuX, "bench", 2*k); err != nil {
			panic(err)
		}
		obj := xpu.ObjID{Kind: "fifo", UUID: "bench"}
		if err := r.cpuN.GrantCap(p, r.cpuX, r.dpuX, obj, xpu.PermWrite|xpu.PermRead); err != nil {
			panic(err)
		}
		dfd, err := r.dpuN.FIFOConnect(p, r.dpuX, "bench")
		if err != nil {
			panic(err)
		}
		msgs := make([]localos.Message, k)
		for i := range msgs {
			msgs[i] = localos.Message{Payload: make([]byte, msgBytes)}
		}

		// Write side: k per-message sends, then one vectorized send.
		start := p.Now()
		for _, m := range msgs {
			if err := dfd.Write(p, m); err != nil {
				panic(err)
			}
		}
		perMsg = p.Now().Sub(start)
		start = p.Now()
		if err := dfd.WriteBatch(p, msgs); err != nil {
			panic(err)
		}
		batched = p.Now().Sub(start)

		// Read side from the DPU: k per-message receives against the first
		// k queued, then one vectorized drain of the rest.
		start = p.Now()
		for i := 0; i < k; i++ {
			if _, err := dfd.Read(p); err != nil {
				panic(err)
			}
		}
		readPer = p.Now().Sub(start)
		start = p.Now()
		out, err := dfd.ReadBatch(p, k)
		if err != nil {
			panic(err)
		}
		if len(out) != k {
			panic(fmt.Sprintf("ReadBatch drained %d of %d", len(out), k))
		}
		readBatched = p.Now().Sub(start)
	})
	r.env.Run()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return NIPCBatchPoint{
		BatchSize:     k,
		PerMessageUS:  us(perMsg),
		BatchedUS:     us(batched),
		BatchedPerMsg: us(batched) / float64(k),
		Speedup:       float64(perMsg) / float64(batched),
		ReadBatchedUS: us(readBatched),
		ReadPerMsgUS:  us(readPer),
		ReadSpeedup:   float64(readPer) / float64(readBatched),
	}
}

// NIPCBatch runs the batched-nIPC sweeps: per payload size, how the fixed
// XPUcall + base-latency cost amortizes as the batch grows.
func NIPCBatch() []NIPCBatchSweep {
	var sweeps []NIPCBatchSweep
	for _, msgBytes := range []int{64, 1024} {
		sw := NIPCBatchSweep{Mode: "nIPC-Poll", MsgBytes: msgBytes}
		for _, k := range []int{1, 4, 16, 64} {
			sw.Points = append(sw.Points, nipcBatchPoint(msgBytes, k))
		}
		sweeps = append(sweeps, sw)
	}
	return sweeps
}

// NIPCBatchTables renders the sweeps for the terminal report.
func NIPCBatchTables(sweeps []NIPCBatchSweep) []*metrics.Table {
	var out []*metrics.Table
	for _, sw := range sweeps {
		t := &metrics.Table{
			Title:  fmt.Sprintf("Batched nIPC — %dB messages, DPU caller (%s)", sw.MsgBytes, sw.Mode),
			Note:   "xfifo_writev vs k individual xfifo_writes to a CPU-homed FIFO",
			Header: []string{"batch", "per-msg total", "batched total", "batched/msg", "speedup", "read speedup"},
		}
		for _, pt := range sw.Points {
			t.AddRow(fmt.Sprintf("%d", pt.BatchSize),
				fmt.Sprintf("%.1fus", pt.PerMessageUS),
				fmt.Sprintf("%.1fus", pt.BatchedUS),
				fmt.Sprintf("%.2fus", pt.BatchedPerMsg),
				fmt.Sprintf("%.2fx", pt.Speedup),
				fmt.Sprintf("%.2fx", pt.ReadSpeedup),
			)
		}
		out = append(out, t)
	}
	return out
}
