package localos

import (
	"fmt"

	"repro/internal/sim"
)

// OpenFIFO returns the named FIFO, or an error if it does not exist.
func (os *OS) OpenFIFO(name string) (*FIFO, error) {
	f, ok := os.fifos[name]
	if !ok {
		return nil, fmt.Errorf("localos: no FIFO %q on %s", name, os.PU.Name)
	}
	return f, nil
}

// RemoveFIFO unlinks the named FIFO. Blocked readers are woken with a
// closed-channel result.
func (os *OS) RemoveFIFO(name string) {
	if f, ok := os.fifos[name]; ok {
		f.Close()
		delete(os.fifos, name)
	}
}

// TryRead receives without blocking (the syscall is still charged only on
// success).
func (f *FIFO) TryRead(p *sim.Proc) (Message, bool) {
	m, ok, got := f.ch.TryRecv()
	if !got {
		return Message{}, false
	}
	p.Sleep(f.os.Costs.FIFOOp)
	return m, ok
}

// Read receives a message, charging one FIFO syscall. ok is false when the
// FIFO was removed. It is a Reader driven on the caller's coroutine.
func (f *FIFO) Read(p *sim.Proc) (Message, bool) {
	r := Reader{f: f}
	for val := any(nil); !r.Step(p, val); {
		val = p.Park()
	}
	return r.Finish()
}
