package sandbox

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/params"
	"repro/internal/sim"
)

// GPU runtime timings. Unlike FPGAs, GPUs load kernels in milliseconds and
// naturally support vectorized sandboxes: one wrapper process (Nvidia MPS in
// the paper, §6.8) hosts many kernels concurrently.
const (
	// gpuModuleLoadTime is loading a CUDA module (cubin) into the wrapper.
	gpuModuleLoadTime = 180 * time.Millisecond
	// gpuContextPrepTime is preparing a per-function stream/context.
	gpuContextPrepTime = 9 * time.Millisecond
	// gpuLaunchOverhead is the kernel-launch command overhead per request.
	gpuLaunchOverhead = 25 * time.Microsecond
)

// RunG is the GPU sandbox runtime demonstrating the generality of the
// vectorized sandbox abstraction (§6.8, Table 5): it implements the same
// five verbs over the CUDA-style wrapper. GPUs support the vector forms
// natively — a single wrapper serves multiple kernels via MPS — so create
// simply loads all modules and start preps their contexts. Kill, Delete,
// State, Sandbox and Running come from the sandbox table it shares with RunF.
type RunG struct {
	Machine *hw.Machine
	PU      *hw.PU // the GPU
	Host    *hw.PU

	streams *sim.Resource // concurrent kernel slots
	accelTable
}

// NewRunG returns a GPU sandbox runtime.
func NewRunG(env *sim.Env, m *hw.Machine, gpu, host *hw.PU) (*RunG, error) {
	if gpu.Kind != hw.GPU {
		return nil, fmt.Errorf("sandbox: PU %q is not a GPU", gpu.Name)
	}
	return &RunG{
		Machine:    m,
		PU:         gpu,
		Host:       host,
		streams:    sim.NewResource(env, 8),
		accelTable: newAccelTable("GPU"),
	}, nil
}

// Create implements Runtime: load the vector's CUDA modules into the
// wrapper. Unlike runf, creating more sandboxes does not evict existing
// ones (GPU memory permitting).
func (rg *RunG) Create(p *sim.Proc, specs []Spec) error {
	for _, s := range specs {
		if _, exists := rg.sandboxes[s.ID]; exists {
			return fmt.Errorf("sandbox: GPU sandbox %q already exists", s.ID)
		}
		if s.FuncID == "" {
			return fmt.Errorf("sandbox: GPU sandbox %q has no func-id", s.ID)
		}
		rg.sandboxes[s.ID] = &AccelSandbox{Spec: s, State: StateCreated}
	}
	p.Sleep(gpuModuleLoadTime) // modules load in one batch
	return nil
}

// Start implements Runtime: prepare streams/contexts concurrently.
func (rg *RunG) Start(p *sim.Proc, ids []string) error {
	prep := false
	for _, id := range ids {
		sb, err := rg.lookup(id)
		if err != nil {
			return err
		}
		if !sb.Prepared {
			sb.Prepared = true
			prep = true
		}
		sb.State = StateRunning
	}
	if prep {
		p.Sleep(gpuContextPrepTime)
	}
	return nil
}

// Invoke handles one request: DMA the arguments, launch the kernel, and DMA
// the results back.
func (rg *RunG) Invoke(p *sim.Proc, id string, argBytes, resultBytes int, kernelTime time.Duration) error {
	sb, err := rg.lookup(id)
	if err != nil {
		return err
	}
	if sb.State != StateRunning {
		return fmt.Errorf("sandbox: GPU sandbox %q not running", id)
	}
	if _, err := rg.Machine.Transfer(p, rg.Host.ID, rg.PU.ID, argBytes); err != nil {
		return err
	}
	p.Sleep(gpuLaunchOverhead + params.DMABaseLatency)
	rg.streams.Acquire(p)
	p.Sleep(kernelTime)
	rg.streams.Release()
	if _, err := rg.Machine.Transfer(p, rg.PU.ID, rg.Host.ID, resultBytes); err != nil {
		return err
	}
	return nil
}

var _ Runtime = (*RunG)(nil)
