package molecule

import "errors"

// Stand-ins mirroring the dispatch/settle surface. The analyzer only runs
// on package repro/internal/molecule, which this fixture type-checks as.

type Proc struct{ ID int }

type Deployment struct{ Name string }

type Result struct{ LatencyUS int64 }

type Runtime struct{ settled int }

func (rt *Runtime) settleResult(d *Deployment, res Result) { rt.settled++ }

var errFlaky = errors.New("flaky")

func run(p *Proc, d *Deployment) (Result, error) { return Result{}, nil }
func flaky() bool                                { return false }

// invokeGood settles exactly once when asked to, never when not.
func (rt *Runtime) invokeGood(p *Proc, d *Deployment, settle bool) (Result, error) {
	res, err := run(p, d)
	if err != nil {
		return Result{}, err
	}
	if settle {
		rt.settleResult(d, res)
	}
	return res, nil
}

// invokeNever returns success without ever settling: the invocation is
// never billed.
func (rt *Runtime) invokeNever(p *Proc, d *Deployment, settle bool) (Result, error) {
	res, err := run(p, d)
	if err != nil {
		return Result{}, err
	}
	return res, nil // want `settleonce: path returns success without settling`
}

// invokeTwice double-bills.
func (rt *Runtime) invokeTwice(p *Proc, d *Deployment, settle bool) (Result, error) {
	res, err := run(p, d)
	if err != nil {
		return Result{}, err
	}
	if settle {
		rt.settleResult(d, res)
	}
	if settle {
		rt.settleResult(d, res) // want `settleonce: path can settle twice`
	}
	return res, nil
}

// invokeAlways ignores the guard: a losing recovery attempt would bill.
func (rt *Runtime) invokeAlways(p *Proc, d *Deployment, settle bool) error {
	res, err := run(p, d)
	if err != nil {
		return err
	}
	rt.settleResult(d, res) // want `settleonce: path settles although the caller passed settle=false`
	return nil
}

// dispatchGood forwards the obligation with tail calls — neutral.
func (rt *Runtime) dispatchGood(p *Proc, d *Deployment, settle bool) (Result, error) {
	if d.Name == "fast" {
		return rt.invokeGood(p, d, settle)
	}
	return rt.invokeGood(p, d, settle)
}

// settleThenFail settles and then reports failure: the settled attempt is
// billed but the caller sees an error.
func (rt *Runtime) settleThenFail(p *Proc, d *Deployment) (Result, error) {
	res, err := run(p, d)
	if err != nil {
		return Result{}, err
	}
	rt.settleResult(d, res)
	if flaky() {
		return Result{}, errFlaky // want `settleonce: every path to this error return has already settled`
	}
	return res, nil
}

// settleThenForward settles locally AND delegates: the callee settles again.
func (rt *Runtime) settleThenForward(p *Proc, d *Deployment, settle bool) (Result, error) {
	res, err := run(p, d)
	if err != nil {
		return Result{}, err
	}
	if settle {
		rt.settleResult(d, res)
	}
	return rt.invokeGood(p, d, settle) // want `settleonce: path settles and then forwards the settle obligation`
}

// spawnSettle: function literals are held to the double-settle rule.
func (rt *Runtime) spawnSettle(p *Proc, d *Deployment) {
	go func() {
		res, err := run(p, d)
		if err != nil {
			return
		}
		rt.settleResult(d, res)
		rt.settleResult(d, res) // want `settleonce: path can settle twice`
	}()
}

// waived: a re-settle the analysis cannot see through, with the reason on
// record.
func (rt *Runtime) waived(p *Proc, d *Deployment) (Result, error) {
	res, err := run(p, d)
	if err != nil {
		return Result{}, err
	}
	rt.settleResult(d, res)
	//lint:settled fixture: rollback verified before the re-settle, so only one lands
	rt.settleResult(d, res)
	return res, nil
}

// A settled-waiver on a line the analysis no longer flags is stale.
//
//lint:settled the double settle this excused is gone // want `stale //lint:settled waiver: no settle finding on this line`
func noSettleHere() {}
