package sandbox

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// AccelSandbox is one accelerator function instance: an FPGA function
// within the current image (runf) or a GPU kernel in the wrapper (rung).
type AccelSandbox struct {
	Spec     Spec
	State    State
	Prepared bool // software sandbox / stream context warmed (Fig 10c "Warm-sandbox")
}

// accelTable is the sandbox bookkeeping runf and rung share: both keep
// their sandboxes by ID and implement kill, delete and state as pure state
// updates, so only create, start and invoke touch the device.
type accelTable struct {
	kind      string // "FPGA" or "GPU", for error messages
	sandboxes map[string]*AccelSandbox
}

func newAccelTable(kind string) accelTable {
	return accelTable{kind: kind, sandboxes: make(map[string]*AccelSandbox)}
}

// lookup returns the sandbox with the given ID or the "no such sandbox"
// error every verb reports.
func (t *accelTable) lookup(id string) (*AccelSandbox, error) {
	sb, ok := t.sandboxes[id]
	if !ok {
		return nil, fmt.Errorf("sandbox: no %s sandbox %q", t.kind, id)
	}
	return sb, nil
}

// Kill implements Runtime.
func (t *accelTable) Kill(_ *sim.Proc, ids []string, sig int) error {
	for _, id := range ids {
		sb, err := t.lookup(id)
		if err != nil {
			return err
		}
		if sb.State == StateRunning {
			sb.State = StateStopped
		}
	}
	return nil
}

// Delete implements Runtime. For accelerator sandboxes the verb only
// updates state: flushed FPGA functions occupy no resources and the real
// destroy happens at the next create, and the GPU wrapper reclaims module
// memory lazily (§3.5).
func (t *accelTable) Delete(_ *sim.Proc, ids []string) error {
	for _, id := range ids {
		sb, err := t.lookup(id)
		if err != nil {
			return err
		}
		sb.State = StateDeleted
	}
	return nil
}

// State implements Runtime.
func (t *accelTable) State(ids []string) []Status {
	if ids == nil {
		for id := range t.sandboxes {
			ids = append(ids, id)
		}
		sort.Strings(ids) // deterministic order for nil queries
	}
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		st := StateUnknown
		if sb, ok := t.sandboxes[id]; ok {
			st = sb.State
		}
		out = append(out, Status{ID: id, State: st})
	}
	return out
}

// Sandbox returns the sandbox with the given ID, or nil.
func (t *accelTable) Sandbox(id string) *AccelSandbox { return t.sandboxes[id] }

// Running returns the running sandbox of funcID with the smallest ID — the
// first one a State(nil) scan would find — and whether there is one.
func (t *accelTable) Running(funcID string) (id string, ok bool) {
	for sid, sb := range t.sandboxes {
		if sb.State == StateRunning && sb.Spec.FuncID == funcID && (!ok || sid < id) {
			id, ok = sid, true
		}
	}
	return id, ok
}
