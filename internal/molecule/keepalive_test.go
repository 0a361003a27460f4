package molecule

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// refKeepAlive is the keep-alive bookkeeping as it was before the pool
// records: pools in a name-keyed map, and every eviction copies the names of
// the non-empty pools, sorts them and scans with a strict <. The property
// test holds the record-based cache to it.
type refKeepAlive struct {
	ka    *keepAlive
	pools map[string][]string // function -> instance IDs, oldest first
}

// pick is the reference victim choice: the sorted names, then the first
// strictly lowest priority.
func (r *refKeepAlive) pick() (string, float64) {
	names := make([]string, 0, len(r.pools))
	for name, pool := range r.pools {
		if len(pool) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	victimFn, victimPri := "", 0.0
	for _, name := range names {
		if pri := r.ka.stat(name).pri; victimFn == "" || pri < victimPri {
			victimFn, victimPri = name, pri
		}
	}
	return victimFn, victimPri
}

func (r *refKeepAlive) age(pri float64) {
	if pri > r.ka.clock {
		r.ka.clock = pri
	}
}

// admit is the reference admit: bump fn, then evict pool fronts until the
// node is within the cap, returning the victims in eviction order.
func (r *refKeepAlive) admit(fn string) []string {
	r.ka.hit(fn)
	total := 0
	for _, pool := range r.pools {
		total += len(pool)
	}
	var evicted []string
	for total > r.ka.capPerPU {
		victimFn, victimPri := r.pick()
		if victimFn == "" {
			break
		}
		pool := r.pools[victimFn]
		evicted = append(evicted, pool[0])
		r.pools[victimFn] = pool[1:]
		r.age(victimPri)
		total--
	}
	return evicted
}

// victim is the reference density-pressure pick: the pool front, left in
// place.
func (r *refKeepAlive) victim() string {
	victimFn, victimPri := r.pick()
	if victimFn == "" {
		return ""
	}
	r.age(victimPri)
	return r.pools[victimFn][0]
}

// remove drops one instance ID from fn's reference pool.
func (r *refKeepAlive) remove(fn, id string) {
	pool := r.pools[fn]
	i := slices.Index(pool, id)
	r.pools[fn] = append(pool[:i:i], pool[i+1:]...)
}

// TestKeepAliveMatchesSortedScan runs random release, warm-hit, destroy,
// density-victim and priority-rewrite sequences against the record-based
// cache and the sort-then-scan reference, with priorities drawn from a few
// values so ties are common. After every step the chosen victims, their
// eviction order, the clock, every priority and every pool must agree.
func TestKeepAliveMatchesSortedScan(t *testing.T) {
	fns := []string{"pyaes", "dd", "matmul", "chameleon", "linpack", "image-resize", "dd2", "a"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capPerPU := 1 + rng.Intn(6)
		ka := newKeepAlive(capPerPU)
		ref := &refKeepAlive{ka: newKeepAlive(capPerPU), pools: map[string][]string{}}
		n := &puNode{}
		fnsHere := fns[:2+rng.Intn(len(fns)-1)]
		nextID := 0
		for step := 0; step < 300; step++ {
			fn := fnsHere[rng.Intn(len(fnsHere))]
			switch op := rng.Intn(10); {
			case op < 5: // release: push, then admit and evict
				nextID++
				id := strconv.Itoa(nextID)
				wp := n.ensurePool(recOn(n, ka, fn))
				wp.insts = append(wp.insts, &instance{rec: wp.rec, node: n, sandboxID: id})
				n.warmCount++
				var got []string
				for v := ka.admit(wp, n); v != nil; v = ka.evict(n) {
					got = append(got, v.sandboxID)
				}
				ref.pools[fn] = append(ref.pools[fn], id)
				if want := ref.admit(fn); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: release %s evicted %v, reference %v", seed, step, fn, got, want)
				}
			case op < 7: // warm hit: pop the newest instance
				wp := poolNamed(n, fn)
				if wp == nil || len(wp.insts) == 0 {
					continue
				}
				id := wp.insts[len(wp.insts)-1].sandboxID
				n.unpool(wp, len(wp.insts)-1)
				ka.touch(wp.rec.stat)
				ref.remove(fn, id)
				ref.ka.hit(fn)
			case op < 8: // destroy an arbitrary pooled instance
				wp := poolNamed(n, fn)
				if wp == nil || len(wp.insts) == 0 {
					continue
				}
				i := rng.Intn(len(wp.insts))
				id := wp.insts[i].sandboxID
				n.unpool(wp, i)
				ref.remove(fn, id)
			case op < 9: // density pressure: pick a victim, then destroy it
				got, want := "", ref.victim()
				if v := ka.victim(n); v != nil {
					got = v.sandboxID
					wp := n.poolOf(v.rec)
					n.unpool(wp, slices.Index(wp.insts, v))
					ref.remove(v.rec.name, got)
				}
				if got != want {
					t.Fatalf("seed %d step %d: victim %q, reference %q", seed, step, got, want)
				}
			default: // rewrite a priority to a small value: forces ties
				pri := float64(rng.Intn(3))
				ka.stat(fn).pri = pri
				ref.ka.stat(fn).pri = pri
			}
			if ka.clock != ref.ka.clock {
				t.Fatalf("seed %d step %d: clock %v, reference %v", seed, step, ka.clock, ref.ka.clock)
			}
			sum := 0
			for _, wp := range n.pools {
				sum += len(wp.insts)
				ids := make([]string, 0, len(wp.insts))
				for _, inst := range wp.insts {
					ids = append(ids, inst.sandboxID)
				}
				fn := wp.rec.name
				if !slices.Equal(ids, ref.pools[fn]) {
					t.Fatalf("seed %d step %d: pool %s = %v, reference %v", seed, step, fn, ids, ref.pools[fn])
				}
				if wp.rec.stat.pri != ref.ka.stat(fn).pri {
					t.Fatalf("seed %d step %d: %s priority %v, reference %v", seed, step, fn, wp.rec.stat.pri, ref.ka.stat(fn).pri)
				}
			}
			if n.warmCount != sum {
				t.Fatalf("seed %d step %d: warmCount %d, pools hold %d", seed, step, n.warmCount, sum)
			}
		}
	}
}

// TestWarmPoolRecords: a node's records appear on first release only, stay
// in function-name order, sit at their functions' index slots, and a
// removed instance leaves no reference behind in its pool's backing array.
func TestWarmPoolRecords(t *testing.T) {
	ka := newKeepAlive(64)
	n := &puNode{}
	pyaes := recOn(n, ka, "pyaes")
	if n.poolOf(pyaes) != nil || n.warmLen(pyaes) != 0 {
		t.Fatal("record exists before any release")
	}
	for _, fn := range []string{"pyaes", "dd", "matmul", "dd", "a"} {
		fillPool(n, recOn(n, ka, fn), 2)
	}
	names := make([]string, 0, len(n.pools))
	for _, wp := range n.pools {
		names = append(names, wp.rec.name)
		if n.byIdx[wp.rec.idx] != wp {
			t.Errorf("pool %s is not at its index slot %d", wp.rec.name, wp.rec.idx)
		}
	}
	if want := []string{"a", "dd", "matmul", "pyaes"}; !slices.Equal(names, want) {
		t.Fatalf("records %v, want %v", names, want)
	}
	dd := recOn(n, ka, "dd")
	if got := n.warmLen(dd); got != 4 {
		t.Fatalf("warmLen(dd) = %d, want 4", got)
	}
	wp := n.poolOf(dd)
	n.unpool(wp, 0)
	if tail := wp.insts[:cap(wp.insts)][len(wp.insts)]; tail != nil {
		t.Errorf("slot past the pool still holds instance %p", tail)
	}
	if n.warmCount != 9 {
		t.Errorf("warmCount = %d, want 9", n.warmCount)
	}
}

// recOn returns the record of node n's pool for fn, or, before n pools fn,
// a new record with the next free index and ka's stat for fn: the pool
// tests' stand-in for Deploy on a node with no runtime.
func recOn(n *puNode, ka *keepAlive, fn string) *funcRec {
	if wp := poolNamed(n, fn); wp != nil {
		return wp.rec
	}
	return &funcRec{name: fn, idx: len(n.byIdx), stat: ka.stat(fn)}
}

// poolNamed returns node n's pool for fn, found by name, or nil.
func poolNamed(n *puNode, fn string) *warmPool {
	for _, wp := range n.pools {
		if wp.rec.name == fn {
			return wp
		}
	}
	return nil
}
