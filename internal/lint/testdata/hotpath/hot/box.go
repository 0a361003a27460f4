package xpu

// resumeMsg and recvResult mirror the kernel's channel handoff: a value for
// a parked receiver rides in the resume message's interface field.
type resumeMsg struct {
	interrupted bool
	val         any
}

type recvResult[T any] struct {
	val T
	ok  bool
}

type closedSend struct{}

type waker struct {
	inbox []resumeMsg
	sink  chan any
	slots []*recvResult[int]
}

func (w *waker) schedule(msg resumeMsg) { w.inbox = append(w.inbox, msg) }

func (w *waker) note(args ...any) {}

// handoff boxes the received value on every call.
//
//molecule:hotpath
func (w *waker) handoff(v int) {
	w.schedule(resumeMsg{val: recvResult[int]{val: v, ok: true}}) // want `struct value of type recvResult\[int\] is boxed into an interface`
	w.schedule(resumeMsg{false, recvResult[int]{val: v}})         // want `struct value of type recvResult\[int\] is boxed`
	var box any
	box = recvResult[int]{ok: true}            // want `struct value of type recvResult\[int\] is boxed`
	var box2 any = recvResult[int]{}           // want `struct value of type recvResult\[int\] is boxed`
	w.sink <- recvResult[int]{}                // want `struct value of type recvResult\[int\] is boxed`
	w.note(v, recvResult[int]{})               // want `struct value of type recvResult\[int\] is boxed`
	_ = any(recvResult[int]{})                 // want `struct value of type recvResult\[int\] is boxed`
	_ = []any{recvResult[int]{}}               // want `struct value of type recvResult\[int\] is boxed`
	_ = [1]any{recvResult[int]{}}              // want `struct value of type recvResult\[int\] is boxed`
	_ = map[string]any{"k": recvResult[int]{}} // want `struct value of type recvResult\[int\] is boxed`
	_, _ = box, box2
}

// pooled hands over a pointer, signals with a zero-size struct and boxes
// only on its bail-out exits: nothing here allocates per call.
//
//molecule:hotpath
func (w *waker) pooled(v int) any {
	r := w.slots[len(w.slots)-1]
	r.val, r.ok = v, true
	w.schedule(resumeMsg{val: r})
	w.schedule(resumeMsg{val: closedSend{}})
	w.note(v, r)
	res := recvResult[int]{val: v} // a plain struct value is not boxed
	if v < 0 {
		panic(recvResult[int]{val: v})
	}
	if v == 0 {
		return recvResult[int]{}
	}
	_ = res
	return nil
}

// coldHandoff has no directive: the check is opt-in.
func (w *waker) coldHandoff(v int) {
	w.schedule(resumeMsg{val: recvResult[int]{val: v, ok: true}})
}
