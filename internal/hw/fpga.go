package hw

import (
	"fmt"
	"time"

	"repro/internal/params"
	"repro/internal/sim"
)

// FPGAResources is a bundle of reconfigurable-fabric resources (Table 4).
type FPGAResources struct {
	LUTs  int
	REGs  int
	BRAMs int
	DSPs  int
}

// Add returns the element-wise sum.
func (r FPGAResources) Add(o FPGAResources) FPGAResources {
	return FPGAResources{r.LUTs + o.LUTs, r.REGs + o.REGs, r.BRAMs + o.BRAMs, r.DSPs + o.DSPs}
}

// Fits reports whether r fits within total.
func (r FPGAResources) Fits(total FPGAResources) bool {
	return r.LUTs <= total.LUTs && r.REGs <= total.REGs && r.BRAMs <= total.BRAMs && r.DSPs <= total.DSPs
}

// Utilization returns each resource's fraction of total, in LUT/REG/BRAM/DSP
// order.
func (r FPGAResources) Utilization(total FPGAResources) [4]float64 {
	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return [4]float64{
		frac(r.LUTs, total.LUTs), frac(r.REGs, total.REGs),
		frac(r.BRAMs, total.BRAMs), frac(r.DSPs, total.DSPs),
	}
}

// F1Resources returns the total resources of one AWS F1 UltraScale+ FPGA.
func F1Resources() FPGAResources {
	return FPGAResources{
		LUTs: params.F1TotalLUTs, REGs: params.F1TotalREGs,
		BRAMs: params.F1TotalBRAMs, DSPs: params.F1TotalDSPs,
	}
}

// WrapperBase returns the resources consumed by the vectorized-sandbox
// wrapper shell itself, before any instance slots.
func WrapperBase() FPGAResources {
	return FPGAResources{
		LUTs: params.FPGAWrapperBaseLUTs, REGs: params.FPGAWrapperBaseREGs,
		BRAMs: params.FPGAWrapperBaseBRAMs, DSPs: params.FPGAWrapperBaseDSPs,
	}
}

// PerInstance returns the wrapper resources consumed by one cached function
// instance slot.
func PerInstance() FPGAResources {
	return FPGAResources{
		LUTs: params.FPGAPerInstLUTs, REGs: params.FPGAPerInstREGs,
		BRAMs: params.FPGAPerInstBRAMs, DSPs: params.FPGAPerInstDSPs,
	}
}

// Image is a synthesized FPGA bitstream containing a wrapper plus a vector
// of function instances (the vectorized-sandbox unit of deployment).
type Image struct {
	Name      string
	Instances []string // kernel names baked into this image
	Resources FPGAResources
}

// BuildImage synthesizes an image for the given kernel names, charging the
// wrapper base cost plus one instance slot each. It fails if the vector does
// not fit the device.
func BuildImage(name string, kernels []string) (*Image, error) {
	res := WrapperBase()
	for range kernels {
		res = res.Add(PerInstance())
	}
	if !res.Fits(F1Resources()) {
		return nil, fmt.Errorf("hw: image %q with %d instances exceeds F1 resources", name, len(kernels))
	}
	return &Image{Name: name, Instances: append([]string(nil), kernels...), Resources: res}, nil
}

// Has reports whether the image contains the named kernel.
func (img *Image) Has(kernel string) bool {
	for _, k := range img.Instances {
		if k == kernel {
			return true
		}
	}
	return false
}

// DRAMBank is one FPGA-attached DRAM bank. Banks are statically assigned to
// instances by the wrapper; two instances may share a bank only when they
// never execute concurrently, which the wrapper enforces through the bank's
// exclusion lock (§5). With data retention enabled, the bank's contents
// survive reprogramming, enabling the zero-copy chain optimization (§4.3).
type DRAMBank struct {
	ID     int
	Owners []string // kernels assigned to this bank (sharing allowed)
	Data   []byte   // retained payload
	Valid  bool     // whether Data holds a live value

	// lock serializes execution of the bank's sharers (wrapper-enforced:
	// sharers never run concurrently).
	lock *sim.Resource
}

// Owned reports whether kernel is assigned to this bank.
func (b *DRAMBank) Owned(kernel string) bool {
	for _, o := range b.Owners {
		if o == kernel {
			return true
		}
	}
	return false
}

// Lock returns the bank's execution-exclusion lock.
func (b *DRAMBank) Lock() *sim.Resource { return b.lock }

func (b *DRAMBank) removeOwner(kernel string) {
	for i, o := range b.Owners {
		if o == kernel {
			b.Owners = append(b.Owners[:i], b.Owners[i+1:]...)
			return
		}
	}
}

// FPGADevice models one FPGA card: its programmed image, execution regions,
// DRAM banks, and the reprogramming state machine with paper-calibrated
// timings (Fig 10c).
type FPGADevice struct {
	env *sim.Env

	image     *Image
	erased    bool // true when fabric has been erased since last program
	regions   *sim.Resource
	banks     []*DRAMBank
	retention bool // DRAM data retention across reprogramming (§4.3)

	programs int // lifetime count of programming operations
	erases   int // lifetime count of erase operations
}

// NewFPGADevice returns a blank device with the given DRAM bank count and
// concurrent execution regions.
func NewFPGADevice(env *sim.Env, banks, regions int) *FPGADevice {
	d := &FPGADevice{env: env, erased: true, regions: sim.NewResource(env, regions)}
	for i := 0; i < banks; i++ {
		d.banks = append(d.banks, &DRAMBank{ID: i, lock: sim.NewResource(env, 1)})
	}
	return d
}

// Image returns the currently programmed image, or nil.
func (d *FPGADevice) Image() *Image { return d.image }

// SetRetention enables or disables DRAM data retention across reprogramming.
func (d *FPGADevice) SetRetention(on bool) { d.retention = on }

// Retention reports whether DRAM data retention is enabled.
func (d *FPGADevice) Retention() bool { return d.retention }

// Banks returns the device's DRAM banks.
func (d *FPGADevice) Banks() []*DRAMBank { return d.banks }

// ProgramCounts reports lifetime (program, erase) operation counts.
func (d *FPGADevice) ProgramCounts() (programs, erases int) { return d.programs, d.erases }

// Erase wipes the fabric, sleeping the caller for the erase time. The
// paper's key observation: this step is unnecessary for serverless images
// because the next Program replaces the configuration anyway.
func (d *FPGADevice) Erase(p *sim.Proc) {
	p.Sleep(params.FPGAEraseTime)
	d.image = nil
	d.erased = true
	d.erases++
	if !d.retention {
		d.invalidateBanks()
	}
}

// Program flushes img onto the device, sleeping the caller for the image
// load time. If eraseFirst is true the fabric is erased beforehand (the
// naive baseline); otherwise the new image directly replaces the old one.
// Without data retention, reprogramming invalidates DRAM bank contents.
func (d *FPGADevice) Program(p *sim.Proc, img *Image, eraseFirst bool) {
	if eraseFirst && !d.erased {
		d.Erase(p)
	}
	p.Sleep(params.FPGAImageLoadTime)
	d.image = img
	d.erased = false
	d.programs++
	if !d.retention {
		d.invalidateBanks()
	}
	// Bank ownership follows the image's instances.
	for _, b := range d.banks {
		changed := false
		for _, o := range append([]string(nil), b.Owners...) {
			if !img.Has(o) {
				b.removeOwner(o)
				changed = true
			}
		}
		if changed && len(b.Owners) == 0 {
			b.Valid = false
			b.Data = nil
		}
	}
}

func (d *FPGADevice) invalidateBanks() {
	for _, b := range d.banks {
		b.Valid = false
		b.Data = nil
	}
}

// AssignBank assigns a free (exclusive) DRAM bank to a kernel, returning an
// error when none is free. Use AssignBankShared to fall back to sharing.
func (d *FPGADevice) AssignBank(kernel string) (*DRAMBank, error) {
	for _, b := range d.banks {
		if b.Owned(kernel) {
			return b, nil
		}
	}
	for _, b := range d.banks {
		if len(b.Owners) == 0 {
			b.Owners = append(b.Owners, kernel)
			return b, nil
		}
	}
	return nil, fmt.Errorf("hw: no free DRAM bank for kernel %q", kernel)
}

// AssignBankShared assigns a bank to the kernel, preferring a free bank and
// otherwise sharing the least-crowded one. Per §5, sharers never execute
// concurrently — the wrapper enforces that with the bank's lock.
func (d *FPGADevice) AssignBankShared(kernel string) (*DRAMBank, error) {
	if b, err := d.AssignBank(kernel); err == nil {
		return b, nil
	}
	if len(d.banks) == 0 {
		return nil, fmt.Errorf("hw: device has no DRAM banks")
	}
	best := d.banks[0]
	for _, b := range d.banks[1:] {
		if len(b.Owners) < len(best.Owners) {
			best = b
		}
	}
	best.Owners = append(best.Owners, kernel)
	return best, nil
}

// ReleaseBank removes a kernel's bank assignment; the bank's data is
// dropped once no owners remain.
func (d *FPGADevice) ReleaseBank(kernel string) {
	for _, b := range d.banks {
		if b.Owned(kernel) {
			b.removeOwner(kernel)
			if len(b.Owners) == 0 {
				b.Valid = false
				b.Data = nil
			}
		}
	}
}

// BankFor returns the bank assigned to kernel, or nil.
func (d *FPGADevice) BankFor(kernel string) *DRAMBank {
	for _, b := range d.banks {
		if b.Owned(kernel) {
			return b
		}
	}
	return nil
}

// Execute runs the named kernel for the given fabric time, holding one
// execution region for the duration. It fails if the kernel is not in the
// programmed image.
func (d *FPGADevice) Execute(p *sim.Proc, kernel string, fabricTime time.Duration) error {
	if d.image == nil || !d.image.Has(kernel) {
		return fmt.Errorf("hw: kernel %q not programmed", kernel)
	}
	d.regions.Acquire(p)
	p.Sleep(fabricTime)
	d.regions.Release()
	return nil
}
