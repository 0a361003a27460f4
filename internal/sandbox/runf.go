package sandbox

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/params"
	"repro/internal/sim"
)

// ErasePolicy selects what happens to the old fabric configuration when a
// new image is flushed.
type ErasePolicy int

const (
	// EraseAlways erases the fabric before every program — the naive OCI
	// mapping (Fig 10c "Baseline").
	EraseAlways ErasePolicy = iota
	// NoErase skips erasing: the next image replaces the configuration
	// directly, which is safe because flushed functions hold no resources
	// (Fig 10c "No-Erase", Molecule's default).
	NoErase
)

// RunF is the FPGA sandbox runtime (§3.5). It maintains FPGA instance
// states, programs vectorized images, and executes kernels. Create is
// vectorized: the whole spec vector is synthesized into one image and
// flushed in a single programming operation, so later requests for any
// member are warm. Delete only updates state — the real destroy happens at
// the next create, which replaces the hardware configuration. Kill, Delete,
// State, Sandbox and Running come from the sandbox table it shares with RunG.
type RunF struct {
	Machine *hw.Machine
	PU      *hw.PU // the FPGA
	Host    *hw.PU // general-purpose PU driving the device (DMA endpoint)
	Policy  ErasePolicy

	accelTable
}

// NewRunF returns an FPGA sandbox runtime for the given device.
func NewRunF(m *hw.Machine, fpga, host *hw.PU) (*RunF, error) {
	if fpga.Device == nil {
		return nil, fmt.Errorf("sandbox: PU %q is not an FPGA", fpga.Name)
	}
	return &RunF{
		Machine:    m,
		PU:         fpga,
		Host:       host,
		Policy:     NoErase,
		accelTable: newAccelTable("FPGA"),
	}, nil
}

// Device returns the underlying FPGA device model.
func (rf *RunF) Device() *hw.FPGADevice { return rf.PU.Device }

// Create implements Runtime. The entire spec vector is packed into one
// image and flushed; instances of the previous image transition to Deleted
// (their hardware is replaced — this is where the deferred destroy happens).
func (rf *RunF) Create(p *sim.Proc, specs []Spec) error {
	if len(specs) == 0 {
		return fmt.Errorf("sandbox: empty create vector")
	}
	kernels := make([]string, 0, len(specs))
	for _, s := range specs {
		if s.FuncID == "" {
			return fmt.Errorf("sandbox: FPGA sandbox %q has no func-id", s.ID)
		}
		kernels = append(kernels, s.FuncID)
	}
	img, err := hw.BuildImage(fmt.Sprintf("vec-%d", len(kernels)), kernels)
	if err != nil {
		return err
	}
	// Replace: previous sandboxes are destroyed by the reprogram.
	for _, sb := range rf.sandboxes {
		if sb.State != StateDeleted {
			sb.State = StateDeleted
		}
	}
	rf.sandboxes = make(map[string]*AccelSandbox, len(specs))
	rf.Device().Program(p, img, rf.Policy == EraseAlways)
	for _, s := range specs {
		rf.sandboxes[s.ID] = &AccelSandbox{Spec: s, State: StateCreated}
	}
	return nil
}

// Start implements Runtime: warm the software sandboxes of the given vector
// concurrently (the vectorized start enables concurrent execution across
// wrapper regions, §3.5). Each unprepared sandbox pays the sandbox-prep
// cost and gets a DRAM bank; since preparations proceed in parallel, the
// caller waits only for the slowest one.
func (rf *RunF) Start(p *sim.Proc, ids []string) error {
	var prep []*AccelSandbox
	for _, id := range ids {
		sb, err := rf.lookup(id)
		if err != nil {
			return err
		}
		if sb.State == StateDeleted {
			return fmt.Errorf("sandbox: FPGA sandbox %q was replaced", id)
		}
		if !sb.Prepared {
			prep = append(prep, sb)
		}
		sb.State = StateRunning
	}
	if len(prep) == 0 {
		return nil
	}
	for _, sb := range prep {
		if _, err := rf.Device().AssignBankShared(sb.Spec.FuncID); err != nil {
			return err
		}
		sb.Prepared = true
	}
	p.Sleep(params.FPGASandboxPrep) // concurrent: one prep time regardless of count
	return nil
}

// Cached reports whether funcID is baked into the currently programmed
// image (a warm-image hit for the keep-alive policy).
func (rf *RunF) Cached(funcID string) bool {
	img := rf.Device().Image()
	return img != nil && img.Has(funcID)
}

// InvokeOptions tune one FPGA invocation's data movement.
type InvokeOptions struct {
	// InputRetained skips the host→device argument DMA because the producer
	// left the data in the function's DRAM bank (zero-copy chain, §4.3).
	InputRetained bool
	// RetainOutput leaves the result in FPGA DRAM instead of copying it
	// back to the host, for consumption by the next FPGA function.
	RetainOutput bool
}

// Invoke handles one request on a running sandbox: transfer the arguments
// to the device, issue the execute command, and wait for results (the
// paper's description of the start verb in request context). argBytes and
// resultBytes size the DMA transfers; fabricTime is the kernel's execution
// time on the fabric.
func (rf *RunF) Invoke(p *sim.Proc, id string, argBytes, resultBytes int, fabricTime time.Duration, opts InvokeOptions) error {
	sb, err := rf.lookup(id)
	if err != nil {
		return err
	}
	if sb.State != StateRunning || !sb.Prepared {
		return fmt.Errorf("sandbox: FPGA sandbox %q not running/prepared", id)
	}
	bank := rf.Device().BankFor(sb.Spec.FuncID)
	if bank == nil {
		return fmt.Errorf("sandbox: FPGA sandbox %q has no DRAM bank", id)
	}
	if !opts.InputRetained {
		if _, err := rf.Machine.Transfer(p, rf.Host.ID, rf.PU.ID, argBytes); err != nil {
			return err
		}
	} else if !bank.Valid {
		return fmt.Errorf("sandbox: FPGA sandbox %q expected retained input but bank is invalid", id)
	}
	// Command issue + completion notification. Bank sharers never execute
	// concurrently (wrapper-enforced), so hold the bank's lock across the
	// kernel run.
	p.Sleep(params.FPGACommandLatency)
	bank.Lock().Acquire(p)
	err = rf.Device().Execute(p, sb.Spec.FuncID, fabricTime)
	bank.Lock().Release()
	if err != nil {
		return err
	}
	if opts.RetainOutput {
		bank.Valid = true
		bank.Data = make([]byte, 0, resultBytes)
	} else {
		if _, err := rf.Machine.Transfer(p, rf.PU.ID, rf.Host.ID, resultBytes); err != nil {
			return err
		}
	}
	return nil
}

// MarkRetained flags funcID's DRAM bank as holding valid input data —
// called by the DAG layer when a producer leaves output for this consumer.
func (rf *RunF) MarkRetained(funcID string) error {
	bank := rf.Device().BankFor(funcID)
	if bank == nil {
		return fmt.Errorf("sandbox: no DRAM bank for %q", funcID)
	}
	bank.Valid = true
	return nil
}

var _ Runtime = (*RunF)(nil)
