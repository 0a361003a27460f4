package molecule

import (
	"slices"
	"strings"
)

// keepAlive implements the keep-alive (warm instance) policy: a
// greedy-dual-frequency cache in the style of FaasCache (§4.2, §5). Each
// function carries a priority of clock + frequency × cost; the cache evicts
// the lowest-priority function's instances first, and the running clock is
// advanced to each evicted priority so recently-evicted functions do not
// immediately lose again.
type keepAlive struct {
	capPerPU int
	clock    float64
	stats    map[string]*kaStat
}

type kaStat struct {
	freq int
	cost float64 // relative recreation cost (cold-start expense)
	pri  float64
}

func newKeepAlive(capPerPU int) *keepAlive {
	if capPerPU <= 0 {
		capPerPU = 64
	}
	return &keepAlive{capPerPU: capPerPU, stats: make(map[string]*kaStat)}
}

func (ka *keepAlive) stat(fn string) *kaStat {
	s, ok := ka.stats[fn]
	if !ok {
		s = &kaStat{cost: 1}
		ka.stats[fn] = s
	}
	return s
}

// hit records a warm-pool hit for fn, boosting its priority.
func (ka *keepAlive) hit(fn string) { ka.touch(ka.stat(fn)) }

// touch counts one use of a function and refreshes its priority.
func (ka *keepAlive) touch(s *kaStat) {
	s.freq++
	s.pri = ka.clock + float64(s.freq)*s.cost
}

// setCost tunes a function's recreation cost (e.g. FPGA functions are far
// more expensive to recreate than cfork'd containers).
func (ka *keepAlive) setCost(s *kaStat, cost float64) {
	if cost <= 0 {
		cost = 1
	}
	s.cost = cost
}

// admit is called after an instance joins node n's warm pool wp: it
// refreshes the function's priority and returns the first instance to evict
// for the per-PU cap (nil when the node is within it). The caller destroys
// each victim and asks evict for the next one until it gets nil, so victims
// are handed back one at a time, with no slice built per call.
//
//molecule:hotpath
func (ka *keepAlive) admit(wp *warmPool, n *puNode) *instance {
	ka.touch(wp.rec.stat)
	return ka.evict(n)
}

// evict shifts the lowest-priority warm instance out of its pool and
// returns it while node n holds more than the per-PU cap; nil otherwise.
//
//molecule:hotpath
func (ka *keepAlive) evict(n *puNode) *instance {
	if n.warmCount <= ka.capPerPU {
		return nil
	}
	v := minPool(n)
	if v == nil {
		return nil
	}
	inst := v.insts[0]
	n.unpool(v, 0)
	ka.age(v.rec.stat.pri)
	return inst
}

// victim picks the idle warm instance the policy would give up from node
// n's pools — lowest greedy-dual priority first, name-ordered tiebreak, the
// same choice admit makes under the per-PU cap — without removing it from
// the pool (the caller destroys it, which unpools). Nil when every pool is
// empty. Used by density-pressure eviction: a cold start that would fail
// on a capacity-full PU reclaims one idle instance instead.
//
//molecule:hotpath
func (ka *keepAlive) victim(n *puNode) *instance {
	v := minPool(n)
	if v == nil {
		return nil
	}
	ka.age(v.rec.stat.pri)
	return v.insts[0]
}

// age advances the greedy-dual clock to an evicted priority. The clock only
// ever advances: a victim whose priority predates the current clock (stale
// stat from an earlier era) must not rewind it, or every later admit would
// inherit an artificially low base priority and thrash the cache.
func (ka *keepAlive) age(pri float64) {
	if pri > ka.clock {
		ka.clock = pri
	}
}

// minPool returns n's non-empty warm pool with the least (priority, name),
// or nil when every pool is empty. The pools are kept in name order, so a
// strict < keeps the first of equal priorities: one pass, no allocation,
// and the same pick as sorting the names and scanning them.
func minPool(n *puNode) *warmPool {
	var v *warmPool
	for _, wp := range n.pools {
		if len(wp.insts) > 0 && (v == nil || wp.rec.stat.pri < v.rec.stat.pri) {
			v = wp
		}
	}
	return v
}

// Priority exposes a function's current cache priority (for tests).
func (ka *keepAlive) Priority(fn string) float64 { return ka.stat(fn).pri }

// warmPool is one PU's idle instances of one function. A node makes the
// record on its first release of the function (never at Deploy) and keeps
// it twice: in pools, in function-name order, so the keep-alive scan needs
// no sort, and in byIdx, at the function's dense index, so a request finds
// its pool without comparing a name. The pool's function record carries
// the keep-alive stat, so the scan needs no map lookup either.
type warmPool struct {
	rec   *funcRec
	insts []*instance
}

func cmpPoolFn(wp *warmPool, fn string) int { return strings.Compare(wp.rec.name, fn) }

// poolOf returns node n's pool for r, or nil before its first release.
func (n *puNode) poolOf(r *funcRec) *warmPool {
	if r.idx < len(n.byIdx) {
		return n.byIdx[r.idx]
	}
	return nil
}

// ensurePool returns node n's pool for r, making the record on first use:
// inserted in name order and slotted at r's index.
func (n *puNode) ensurePool(r *funcRec) *warmPool {
	if wp := n.poolOf(r); wp != nil {
		return wp
	}
	wp := &warmPool{rec: r}
	i, _ := slices.BinarySearchFunc(n.pools, r.name, cmpPoolFn)
	n.pools = slices.Insert(n.pools, i, wp)
	if r.idx >= len(n.byIdx) {
		n.byIdx = append(n.byIdx, make([]*warmPool, r.idx+1-len(n.byIdx))...)
	}
	n.byIdx[r.idx] = wp
	return wp
}

// warmLen reports how many idle instances of r node n holds.
func (n *puNode) warmLen(r *funcRec) int {
	if wp := n.poolOf(r); wp != nil {
		return len(wp.insts)
	}
	return 0
}

// unpool removes wp's i-th instance, shifting the later ones down in place;
// slices.Delete clears the freed slot, so the backing array keeps no
// removed instance reachable.
func (n *puNode) unpool(wp *warmPool, i int) {
	wp.insts = slices.Delete(wp.insts, i, i+1)
	n.warmCount--
}

// dropPool deletes wp's record from node n; its instances must already be
// gone from the warm count.
func (n *puNode) dropPool(wp *warmPool) {
	if i := slices.Index(n.pools, wp); i >= 0 {
		n.pools = slices.Delete(n.pools, i, i+1)
	}
	n.byIdx[wp.rec.idx] = nil
}
