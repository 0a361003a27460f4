package sim

// Chan is a simulated channel carrying values of type T between processes.
// A capacity of zero gives rendezvous semantics; a positive capacity buffers
// up to cap values. Closed channels deliver the zero value with ok=false to
// receivers, like native Go channels.
type Chan[T any] struct {
	env *Env
	// buf is a ring: count values starting at head, wrapping around. A ring
	// (rather than append/reslice) keeps steady-state send/recv allocation-
	// free — the storage grows geometrically up to cap and is then reused
	// forever.
	buf   []T
	head  int
	count int
	cap   int
	// sendq and recvq hold the parked senders and receivers, oldest first.
	// Dequeuing shifts the rest down, so each backing array is reused for
	// the channel's lifetime and parking allocates nothing once it has
	// grown. A queued process that exits without waiting (RecvStep queues
	// without parking) stays queued until it reaches the head, where
	// liveRecv/liveSend drop it.
	sendq []sendWaiter[T]
	recvq []*Proc
	// free is the pool of hand-off slots, linked through their next
	// fields: a value handed to a parked receiver travels in a
	// *recvResult[T], which fits in the resume message without boxing, and
	// Recv returns it here.
	free   *recvResult[T]
	closed bool
}

type sendWaiter[T any] struct {
	p   *Proc
	val T
}

type recvResult[T any] struct {
	val  T
	ok   bool
	next *recvResult[T] // pool link while free
}

// handoff wakes the oldest parked receiver with (v, ok), carried in a
// pooled slot.
//
//molecule:hotpath
func (c *Chan[T]) handoff(v T, ok bool) {
	r := c.free
	if r != nil {
		c.free, r.next = r.next, nil
	} else {
		r = new(recvResult[T])
	}
	r.val, r.ok = v, ok
	c.env.scheduleResume(c.env.now, c.popRecv(), r)
}

// canHandOff reports whether p can still complete a hand-off: it has not
// exited.
func (p *Proc) canHandOff() bool { return !p.exited }

// liveRecv drops the parked receivers at the head of recvq that cannot
// complete a hand-off and reports whether a receiver remains.
func (c *Chan[T]) liveRecv() bool {
	for len(c.recvq) > 0 && !c.recvq[0].canHandOff() {
		c.popRecv()
	}
	return len(c.recvq) > 0
}

// liveSend is liveRecv for parked senders. A dropped sender's value was
// never accepted, so it is dropped with it.
func (c *Chan[T]) liveSend() bool {
	for len(c.sendq) > 0 && !c.sendq[0].p.canHandOff() {
		c.popSend()
	}
	return len(c.sendq) > 0
}

// closedSend is the resume payload delivered to a parked sender when the
// channel closes underneath it.
type closedSend struct{}

// NewChan returns a simulated channel with the given buffer capacity.
func NewChan[T any](env *Env, capacity int) *Chan[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Chan[T]{env: env, cap: capacity}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int { return c.count }

// push appends v to the ring buffer; the caller has checked count < cap.
func (c *Chan[T]) push(v T) {
	if c.count == len(c.buf) {
		n := len(c.buf) * 2
		if n == 0 {
			n = 4
		}
		if n > c.cap {
			n = c.cap
		}
		nb := make([]T, n)
		for i := 0; i < c.count; i++ {
			nb[i] = c.buf[(c.head+i)%len(c.buf)]
		}
		c.buf = nb
		c.head = 0
	}
	c.buf[(c.head+c.count)%len(c.buf)] = v
	c.count++
}

// pop removes and returns the oldest buffered value; the caller has checked
// count > 0. The vacated slot is zeroed so payloads are not retained.
func (c *Chan[T]) pop() T {
	v := c.buf[c.head]
	var zero T
	c.buf[c.head] = zero
	c.head = (c.head + 1) % len(c.buf)
	c.count--
	return v
}

// Close closes the channel. Parked receivers are woken with ok=false, and
// parked senders are woken with a closed-channel signal: their value is
// dropped, Send panics (like native channels) and SendOrClosed returns
// false.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	var zero T
	for c.liveRecv() {
		c.handoff(zero, false)
	}
	for _, w := range c.sendq {
		c.env.scheduleResume(c.env.now, w.p, closedSend{})
	}
	clear(c.sendq)
	c.sendq = c.sendq[:0]
}

// Reset empties the channel and reopens it with the given capacity, keeping
// its ring storage, so a pooled channel can serve a new owner. Only an idle
// channel may be reset: a live parked process is a bug in the caller, and
// Reset panics on it.
func (c *Chan[T]) Reset(capacity int) {
	if c.liveSend() || c.liveRecv() {
		panic("sim: Reset of a channel with parked processes")
	}
	clear(c.buf)
	c.head, c.count, c.closed = 0, 0, false
	c.cap = max(capacity, 0)
}

// Send delivers v on the channel, parking p until a receiver or buffer slot
// is available. Sending on a closed channel — including a channel closed
// while the sender was parked — panics, as with native channels.
func (c *Chan[T]) Send(p *Proc, v T) {
	if !c.send(p, v) {
		panic("sim: send on closed channel")
	}
}

// SendOrClosed is Send for callers that must survive a concurrent Close: it
// reports whether the value was delivered, returning false instead of
// panicking when the channel is closed — whether upfront or while the
// sender was parked on a full buffer.
func (c *Chan[T]) SendOrClosed(p *Proc, v T) bool {
	return c.send(p, v)
}

// send delivers v, reporting false if the channel was (or became) closed.
//
//molecule:hotpath
func (c *Chan[T]) send(p *Proc, v T) bool {
	if c.closed {
		return false
	}
	// A waiting receiver takes the value directly.
	if c.liveRecv() {
		c.handoff(v, true)
		return true
	}
	if c.count < c.cap {
		c.push(v)
		return true
	}
	// Block until a receiver drains us — or Close wakes us empty-handed.
	c.sendq = append(c.sendq, sendWaiter[T]{p: p, val: v})
	if _, wasClosed := p.park().(closedSend); wasClosed {
		return false
	}
	return true
}

// TrySend delivers v without blocking; it reports whether the value was
// accepted (by a waiting receiver or a free buffer slot).
//
//molecule:hotpath
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("sim: send on closed channel")
	}
	if c.liveRecv() {
		c.handoff(v, true)
		return true
	}
	if c.count < c.cap {
		c.push(v)
		return true
	}
	return false
}

// Recv receives a value, parking p until one is available. ok is false when
// the channel is closed and drained.
//
//molecule:hotpath
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	if ok, got := c.RecvStep(p, &v); got {
		return v, ok
	}
	ok = c.Handed(p.park(), &v)
	return v, ok
}

// RecvStep is Recv for a step (see Step): got reports a value (or a
// closed-channel signal) taken at once into *dst; otherwise p joins the
// parked receivers, and the hand-off that resumes it carries the value for
// Handed.
//
//molecule:hotpath
func (c *Chan[T]) RecvStep(p *Proc, dst *T) (ok, got bool) {
	if ok, got = c.tryRecv(dst); got {
		return ok, true
	}
	c.recvq = append(c.recvq, p)
	return false, false
}

// Handed takes into *dst the value a hand-off resumed a receiver queued by
// RecvStep with; val is that resume's value.
//
//molecule:hotpath
func (c *Chan[T]) Handed(val any, dst *T) (ok bool) {
	r := val.(*recvResult[T])
	*dst, ok = r.val, r.ok
	*r = recvResult[T]{next: c.free}
	c.free = r
	return ok
}

// popRecv removes and returns the oldest parked receiver.
func (c *Chan[T]) popRecv() *Proc {
	p := c.recvq[0]
	n := copy(c.recvq, c.recvq[1:])
	c.recvq[n] = nil
	c.recvq = c.recvq[:n]
	return p
}

// popSend removes and returns the oldest parked sender.
func (c *Chan[T]) popSend() sendWaiter[T] {
	w := c.sendq[0]
	n := copy(c.sendq, c.sendq[1:])
	c.sendq[n] = sendWaiter[T]{}
	c.sendq = c.sendq[:n]
	return w
}

// TryRecv receives without blocking. got reports whether a value (or a
// closed-channel signal) was available.
func (c *Chan[T]) TryRecv() (v T, ok, got bool) {
	ok, got = c.tryRecv(&v)
	return v, ok, got
}

// tryRecv receives into *dst without blocking; see TryRecv.
func (c *Chan[T]) tryRecv(dst *T) (ok, got bool) {
	if c.count > 0 {
		*dst = c.pop()
		// Promote a blocked sender's value into the freed slot.
		if c.liveSend() {
			w := c.popSend()
			c.push(w.val)
			c.env.scheduleResume(c.env.now, w.p, nil)
		}
		return true, true
	}
	if c.liveSend() { // unbuffered rendezvous
		w := c.popSend()
		c.env.scheduleResume(c.env.now, w.p, nil)
		*dst = w.val
		return true, true
	}
	if c.closed {
		var zero T
		*dst = zero
		return false, true
	}
	return false, false
}

// Resource is a counting semaphore over virtual time: Acquire parks the
// caller until a unit is free. Units are granted in FIFO order.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	// waitq holds the parked acquirers, oldest first. Release shifts the
	// rest down, as Chan.popRecv does, so the backing array keeps its
	// capacity and a contended Acquire allocates nothing once it has grown.
	waitq []*Proc
}

// NewResource returns a resource with the given capacity (minimum 1).
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{env: env, capacity: capacity}
}

// Capacity reports the total units.
func (r *Resource) Capacity() int { return r.capacity }

// Acquire obtains one unit, parking p until one is free.
func (r *Resource) Acquire(p *Proc) {
	if !r.AcquireStep(p) {
		p.park()
	}
}

// AcquireStep is Acquire for a step (see Step): it takes a free unit and
// reports true, or queues p for a released unit and reports false; the
// hand-off then resumes p holding the unit.
func (r *Resource) AcquireStep(p *Proc) bool {
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	r.waitq = append(r.waitq, p)
	return false
}

// Release returns one unit, handing it to the oldest waiter that can take
// it. A waiter that has exited is dropped instead, as Chan drops such
// receivers: the unit would never come back.
func (r *Resource) Release() {
	for len(r.waitq) > 0 {
		p := r.waitq[0]
		n := copy(r.waitq, r.waitq[1:])
		r.waitq[n] = nil
		r.waitq = r.waitq[:n]
		if p.canHandOff() {
			r.env.scheduleResume(r.env.now, p, nil)
			return
		}
	}
	if r.inUse > 0 {
		r.inUse--
	}
}

// WaitGroup counts outstanding tasks in virtual time; Wait parks until the
// count reaches zero.
type WaitGroup struct {
	env     *Env
	count   int
	waiters []*Proc
}

// NewWaitGroup returns a wait group with count zero.
func NewWaitGroup(env *Env) *WaitGroup { return &WaitGroup{env: env} }

// Add adds delta to the count. The count must not go negative.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		for _, p := range wg.waiters {
			wg.env.scheduleResume(wg.env.now, p, nil)
		}
		clear(wg.waiters)
		wg.waiters = wg.waiters[:0]
	}
}

// Done decrements the count by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count reports the current count.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait parks p until the count is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.park()
}
