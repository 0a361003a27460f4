package xpu

import "fmt"

type tracer struct{}

func (tracer) Tracef(format string, args ...any) {}

type shim struct {
	tr      tracer
	tracing bool
	prefix  string
}

// send is pinned at zero allocations per op; every construct below defeats
// that on the success path.
//
//molecule:hotpath
func (s *shim) send(id int, payload string) error {
	label := fmt.Sprintf("msg-%d", id)    // want `fmt\.Sprintf allocates on the success path`
	key := s.prefix + payload             // want `string concatenation allocates`
	s.tr.Tracef("send %s %s", label, key) // want `unguarded Tracef`
	if s.tracing {
		s.tr.Tracef("send %s", label) // guarded: arguments box only when tracing
	}
	if payload == "" {
		return fmt.Errorf("empty payload for %q", label) // error exit: allowed
	}
	cb := func() string { return key } // want `closure captures "key"`
	_ = cb
	return nil
}

// fail builds its error in the return statement — the bail-out exit is not
// the pinned path.
//
//molecule:hotpath
func (s *shim) fail(id int) error {
	return fmt.Errorf("node %d down", id)
}

// coldSend has no directive: the check is opt-in and stays quiet here.
func (s *shim) coldSend(id int, payload string) string {
	label := fmt.Sprintf("msg-%d", id)
	return label + s.prefix + payload
}

// retired once held a pinned send loop; the directive drifted into the body
// when the function was gutted, so it pins nothing now.
func (s *shim) retired() {
	//molecule:hotpath // want `hotpath: stale //molecule:hotpath directive: not attached to a function declaration`
	_ = s.prefix
}
