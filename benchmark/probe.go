package main

// Host speed on a shared machine drifts by tens of percent over minutes as
// neighbours load it. Each timed rep is therefore bracketed by a fixed
// reference workload, and the end-to-end host times are reported as if the
// reference had taken refMixMs: a change to the simulator moves them, a
// change in host speed mostly does not. The reference uses the standard
// library only, so no change to the repository can move it, and it leans
// on what the simulator leans on: an event heap of closures, goroutine
// handoffs over channels, map churn with small allocations, sorting and
// byte crunching. On the 2-vCPU reference VM, over 100 back-to-back reps
// of chain-nipc, this scaling cut the spread of 25-second medians of rep
// throughput from 0.196 to 0.040 of their median (coldstart-zygote: 0.096
// to 0.055). The raw values and the reference time are per-layer metrics.

import (
	"bytes"
	"compress/flate"
	"container/heap"
	"math/rand"
	"slices"
	"time"
)

// refMixMs is the reference time host times are scaled to: about what
// refMix takes on the reference VM.
const refMixMs = 20.0

// refMixData is the fixed input refMix compresses.
var refMixData = func() []byte {
	r := rand.New(rand.NewSource(2))
	b := make([]byte, 256<<10)
	for i := range b {
		b[i] = byte('a' + r.Intn(8))
	}
	return b
}()

type refEvent struct {
	at int64
	fn func()
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

var refSink int

// refMix runs the reference workload once and returns its time in ms.
func refMix() float64 {
	t := time.Now()
	r := rand.New(rand.NewSource(1))
	fired := 0
	h := &refHeap{}
	for i := 0; i < 30000; i++ {
		heap.Push(h, &refEvent{at: r.Int63n(1 << 30), fn: func() { fired++ }})
		if h.Len() > 1000 {
			heap.Pop(h).(*refEvent).fn()
		}
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < 5000; i++ {
		ping <- i
		fired += <-pong
	}
	close(ping)
	m := map[int]*refEvent{}
	for i := 0; i < 30000; i++ {
		m[r.Intn(5000)] = &refEvent{at: int64(i)}
		delete(m, r.Intn(5000))
	}
	xs := make([]int, 30000)
	for i := range xs {
		xs[i] = r.Int()
	}
	slices.Sort(xs)
	var buf bytes.Buffer
	w, _ := flate.NewWriter(&buf, 1)
	w.Write(refMixData)
	w.Close()
	refSink = fired + len(m) + buf.Len() + xs[0]
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// hostRef is the least disturbed of three reference runs, in ms.
func hostRef() float64 {
	return min(refMix(), refMix(), refMix())
}
