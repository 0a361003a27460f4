package molecule

import "errors"

// Stand-ins mirroring the real molecule acquire/release surface.

type Proc struct{ ID int }

type instance struct{ id int }

type Runtime struct{ warm []*instance }

func (rt *Runtime) acquire(p *Proc, name string) (*instance, error) {
	return &instance{}, nil
}

func (rt *Runtime) release(p *Proc, inst *instance) {}

func (rt *Runtime) destroy(p *Proc, inst *instance) {}

// AcquireHeld's own body transfers ownership with the return — no finding.
func (rt *Runtime) AcquireHeld(p *Proc, name string) (*instance, error) {
	return rt.acquire(p, name)
}

func (rt *Runtime) ReleaseHeld(p *Proc, inst *instance) { rt.release(p, inst) }

var errBusy = errors.New("busy")

func tooBusy() bool       { return false }
func use(_ []*instance)   {}
func park(_ *instance)    {}
func evicting() bool      { return false }
func fails(_ *Proc) error { return nil }

// ChainBuggy is the literal PR 8 InvokeChain shape: the cleanup defer is
// registered AFTER the acquire loop, so a mid-loop acquire error leaks
// every already-stored instance.
func ChainBuggy(rt *Runtime, p *Proc, names []string) error {
	insts := make([]*instance, len(names))
	for i, name := range names {
		inst, err := rt.acquire(p, name)
		if err != nil {
			return err
		}
		insts[i] = inst // want `releasepath: molecule instance "inst" stored into a container before its cleanup defer is registered`
	}
	defer func() {
		for _, inst := range insts {
			if inst != nil {
				rt.release(p, inst)
			}
		}
	}()
	use(insts)
	return nil
}

// ChainFixed registers the defer before the loop — the PR 8 fix shape.
func ChainFixed(rt *Runtime, p *Proc, names []string) error {
	insts := make([]*instance, len(names))
	defer func() {
		for _, inst := range insts {
			if inst != nil {
				rt.release(p, inst)
			}
		}
	}()
	for i, name := range names {
		inst, err := rt.acquire(p, name)
		if err != nil {
			return err
		}
		insts[i] = inst
	}
	use(insts)
	return nil
}

// Leaky releases on the happy path but not on the early bail-out.
func Leaky(rt *Runtime, p *Proc) error {
	inst, err := rt.acquire(p, "f") // want `releasepath: molecule instance "inst" acquired here can reach the return at`
	if err != nil {
		return err
	}
	if tooBusy() {
		return errBusy
	}
	rt.release(p, inst)
	return nil
}

// DoubleRelease is the PR 9 evict-vs-fork-error shape: the evicting branch
// destroys the instance, then the shared epilogue releases it again.
func DoubleRelease(rt *Runtime, p *Proc) error {
	inst, err := rt.acquire(p, "f")
	if err != nil {
		return err
	}
	if evicting() {
		rt.destroy(p, inst)
	}
	rt.release(p, inst) // want `releasepath: molecule instance "inst" released twice on a path`
	return nil
}

// Discarded results can never be released.
func Discard(rt *Runtime, p *Proc) {
	rt.acquire(p, "f") // want `releasepath: molecule instance result of repro/internal/molecule\.Runtime\.acquire discarded`
}

func DiscardBlank(rt *Runtime, p *Proc) error {
	_, err := rt.acquire(p, "f") // want `releasepath: molecule instance result of repro/internal/molecule\.Runtime\.acquire discarded`
	return err
}

// holder takes ownership: storing the instance into a fresh composite
// literal transfers it.
type holder struct{ inst *instance }

func TransferOK(rt *Runtime, p *Proc) (*holder, error) {
	inst, err := rt.acquire(p, "f")
	if err != nil {
		return nil, err
	}
	return &holder{inst: inst}, nil
}

// ReleaseOnEveryPath is the canonical correct shape, destroy included.
func ReleaseOnEveryPath(rt *Runtime, p *Proc) error {
	inst, err := rt.acquire(p, "f")
	if err != nil {
		return err
	}
	if ferr := fails(p); ferr != nil {
		rt.destroy(p, inst)
		return ferr
	}
	rt.release(p, inst)
	return nil
}

// HeldForever parks instances for the experiment's lifetime; the waiver
// records the non-local pairing.
func HeldForever(rt *Runtime, p *Proc) error {
	//lint:released fixture: density experiment holds the instance for the whole run
	inst, err := rt.acquire(p, "f")
	if err != nil {
		return err
	}
	park(inst)
	return nil
}

// acquireAll takes one instance per name, all or nothing; releaseAll hands
// the whole set back.
func (rt *Runtime) acquireAll(p *Proc, names []string) ([]*instance, error) { return nil, nil }

func (rt *Runtime) releaseAll(p *Proc, insts []*instance) {}

// SetForgotten takes a whole set but bails out before handing it back.
func SetForgotten(rt *Runtime, p *Proc, names []string) error {
	insts, err := rt.acquireAll(p, names) // want `releasepath: molecule instance set "insts" acquired here can reach the return at`
	if err != nil {
		return err
	}
	if tooBusy() {
		return errBusy
	}
	rt.releaseAll(p, insts)
	return nil
}

// SetDeferred is the InvokeChain / InvokeDAG shape: release the set with a
// defer right after the acquire.
func SetDeferred(rt *Runtime, p *Proc, names []string) error {
	insts, err := rt.acquireAll(p, names)
	if err != nil {
		return err
	}
	defer rt.releaseAll(p, insts)
	use(insts)
	return nil
}

// A released-waiver on a line that acquires nothing is stale.
//lint:released the acquire this excused was deleted // want `stale //lint:released waiver: no tracked acquire on this line`
func nothingAcquired() {}
