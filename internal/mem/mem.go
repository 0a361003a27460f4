// Package mem implements the page-granular memory model used by the
// simulated operating systems.
//
// Address spaces map page numbers to physical pages. Fork shares every page
// copy-on-write, exactly like Unix: the page's reference count rises, and the
// first write by either side breaks the sharing by allocating a private copy.
// The model exists to reproduce the paper's Fig 11b/c memory results: cfork'd
// instances share template pages, so their PSS (proportional set size) is
// lower than plainly-booted instances even though RSS (resident set size)
// can be slightly higher due to the template's own footprint.
//
// Representation: instead of a map from virtual page number to a heap-allocated
// page, an address space holds a short sorted list of mappings, each a window
// into an extent — a contiguous block of physical pages shared by every
// address space that maps it. An extent stores its per-page reference counts
// as runs of equal value, coalesced after every operation, so a template
// extent stays at two or three runs however many children fork from it.
// Fork, Write and Release adjust a window's runs (split at its two ends,
// add ±1 in between, merge equal neighbours), so their host cost depends on
// the number of runs, not on the number of simulated pages. The observable
// semantics (fault counts, RSS, PSS, shared-page counts) are identical to a
// per-page model.
//
// A cold start's host work edits in place: splice rewrites the mapping list
// within its capacity, Fork leaves the child spare slots for the mappings a
// cold start adds, and an extent no page of which is referenced any more
// goes on its family's free list for the next Map or Write to reuse.
package mem

import "slices"

// run is a maximal stretch of an extent's pages with one reference count. It
// covers pages [start, end), where start is the previous run's end (0 for
// the first run).
type run struct {
	end  int
	refs int32
}

// extent is a contiguous block of physical pages. A page's reference count
// is the number of address spaces that map it; a page with refs 0 is
// orphaned and never counted again. The counts are stored as runs sorted by
// end: the last run ends at the extent's size, and no two neighbours have
// equal refs.
type extent struct {
	runs  []run
	first [1]run // inline backing for a fresh extent's single run
}

// mapping is a window of an extent mapped at a contiguous virtual range:
// virtual page vpn+i is backed by page off+i of ext for i in [0, n).
type mapping struct {
	vpn int
	n   int
	off int
	ext *extent
}

// extentPool is the free list of one address-space family: a space made by
// NewAddressSpace and every space forked from it, the only spaces that can
// map the family's extents. The family's first Fork creates it, so a space
// that is never forked (a gateway, a plain boot) allocates nothing for it.
// An extent goes on it once every one of its pages has zero references,
// which no mapped page can have, so nothing reaches it until newExtent
// hands it out again. It is per family, never package-level: parallel
// simulations keep separate families.
type extentPool struct {
	n    int // free[:n] are free
	free [maxFreeExtents]*extent
}

// maxFreeExtents caps a family's free list. A cold start takes at most
// three extents and the exit it pairs with frees as many, so three cover
// the steady fork/exit cycle; extents freed past the cap by a burst of
// exits are left to the garbage collector rather than held for the life
// of the family.
const maxFreeExtents = 3

// forkSpare is how many mapping slots Fork leaves free in the child: a cold
// start maps the function's private pages and splits the base mapping in
// two with its first write. A zygote child that also maps residual imports
// grows its list once; a spare slot for it would sit empty in every other
// live instance.
const forkSpare = 2

// AddressSpace is a process's page table: a sorted, non-overlapping list of
// extent windows.
type AddressSpace struct {
	maps []mapping
	next int         // next unused virtual page number for Map allocations
	pool *extentPool // the family's free extents; nil until its first Fork
	// released guards the refcount decrement in Release: an address space
	// can be torn down from more than one path (keep-alive eviction vs an
	// in-flight fork's error cleanup), and decrementing shared extents
	// twice would silently corrupt every sharer's PSS.
	released bool
}

// NewAddressSpace returns an empty address space, the root of a new family.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{}
}

// newExtent returns n pages with one reference each: a free extent of the
// family if there is one, else a fresh one in one allocation.
func (as *AddressSpace) newExtent(n int) *extent {
	var e *extent
	if p := as.pool; p != nil && p.n > 0 {
		p.n--
		e, p.free[p.n] = p.free[p.n], nil
	} else {
		e = &extent{}
		e.runs = e.first[:0]
	}
	e.runs = append(e.runs[:0], run{end: n, refs: 1})
	return e
}

// unref drops this space's reference to pages [lo, hi) of e, and frees e
// to the family's list, if it has room, once none of its pages is
// referenced.
func (as *AddressSpace) unref(e *extent, lo, hi int) {
	e.add(lo, hi, -1)
	if p := as.pool; p != nil && p.n < maxFreeExtents && len(e.runs) == 1 && e.runs[0].refs == 0 {
		p.free[p.n] = e
		p.n++
	}
}

// runAt returns the index of the run containing page p, or len(e.runs) when
// p is at or past the extent's end.
func (e *extent) runAt(p int) int {
	lo, hi := 0, len(e.runs)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.runs[mid].end <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// start returns the first page of run i.
func (e *extent) start(i int) int {
	if i == 0 {
		return 0
	}
	return e.runs[i-1].end
}

// overlap returns how many pages run i shares with [lo, hi).
func (e *extent) overlap(i, lo, hi int) int {
	return min(e.runs[i].end, hi) - max(e.start(i), lo)
}

// split makes page p the start of a run and returns that run's index.
func (e *extent) split(p int) int {
	i := e.runAt(p)
	if i == len(e.runs) || e.start(i) == p {
		return i
	}
	e.runs = slices.Insert(e.runs, i, run{end: p, refs: e.runs[i].refs})
	return i + 1
}

// add adds delta to the reference count of every page in [lo, hi).
//
//molecule:hotpath
func (e *extent) add(lo, hi int, delta int32) {
	i := e.split(lo)
	j := e.split(hi)
	for k := i; k < j; k++ {
		e.runs[k].refs += delta
	}
	// Runs inside the window stay distinct (each moved by the same delta);
	// only the window's two edges can have become equal to a neighbour.
	e.merge(j)
	e.merge(i)
}

// merge coalesces run i into run i-1 when their counts are equal.
func (e *extent) merge(i int) {
	if i <= 0 || i >= len(e.runs) || e.runs[i-1].refs != e.runs[i].refs {
		return
	}
	e.runs[i-1].end = e.runs[i].end
	e.runs = slices.Delete(e.runs, i, i+1)
}

// privatize moves the writer's pages in [lo, hi) to a private copy: every
// page loses the writer's reference, so a shared page (refs > 1) COW-faults
// and an already-private page (refs 1) orphans to 0. It returns the number
// of faults. When no page in the window is shared it changes nothing and
// returns 0: re-writing private pages is free.
//
//molecule:hotpath
func (e *extent) privatize(lo, hi int) int {
	faults := 0
	for i := e.runAt(lo); i < len(e.runs) && e.start(i) < hi; i++ {
		if e.runs[i].refs > 1 {
			faults += e.overlap(i, lo, hi)
		}
	}
	if faults > 0 {
		e.add(lo, hi, -1)
	}
	return faults
}

// search returns the index of the first mapping whose end lies beyond vpn —
// the mapping containing vpn if one exists, otherwise the insertion point.
func (as *AddressSpace) search(vpn int) int {
	lo, hi := 0, len(as.maps)
	for lo < hi {
		mid := (lo + hi) / 2
		if as.maps[mid].vpn+as.maps[mid].n <= vpn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splice replaces as.maps[i] with the given replacement mappings, in place
// when the list's capacity allows. No other space shares the backing array:
// Fork copies it.
//
//molecule:hotpath
func (as *AddressSpace) splice(i int, repl ...mapping) {
	as.maps = slices.Replace(as.maps, i, i+1, repl...)
}

// Map allocates n fresh private pages and returns the first virtual page
// number of the contiguous run.
//
//molecule:hotpath
func (as *AddressSpace) Map(n int) int {
	start := as.next
	if n > 0 {
		// as.next never lies inside an existing mapping (Map and demand
		// paging both advance it past what they touch), so appending keeps
		// the list sorted.
		as.maps = append(as.maps, mapping{vpn: start, n: n, off: 0, ext: as.newExtent(n)})
		as.next += n
		as.released = false // mapping into a released space revives it
	}
	return start
}

// Fork returns a copy-on-write clone: every page is shared with the parent
// and each side's first write will privatize its copy. The child joins the
// parent's family and gets its own mapping list, with forkSpare free slots.
//
//molecule:hotpath
func (as *AddressSpace) Fork() *AddressSpace {
	if as.pool == nil {
		as.pool = &extentPool{}
	}
	child := &AddressSpace{
		maps: make([]mapping, len(as.maps), len(as.maps)+forkSpare),
		next: as.next,
		pool: as.pool,
	}
	copy(child.maps, as.maps)
	for _, m := range as.maps {
		m.ext.add(m.off, m.off+m.n, 1)
	}
	return child
}

// Write dirties n pages starting at vpn, breaking copy-on-write sharing.
// It returns the number of pages that were actually copied (i.e. the number
// of COW faults), which the OS model converts into fault latency.
//
//molecule:hotpath
func (as *AddressSpace) Write(vpn, n int) int {
	faults := 0
	end := vpn + n
	cur := vpn
	for cur < end {
		i := as.search(cur)
		if i == len(as.maps) || as.maps[i].vpn >= end {
			// Pure hole until end: demand-page it in one extent.
			faults += end - cur
			as.demandPage(i, cur, end)
			cur = end
			break
		}
		m := as.maps[i]
		if cur < m.vpn {
			// Hole before the next mapping.
			faults += m.vpn - cur
			as.demandPage(i, cur, m.vpn)
			cur = m.vpn
			continue
		}
		chunkEnd := m.vpn + m.n
		if end < chunkEnd {
			chunkEnd = end
		}
		f := m.ext.privatize(m.off+cur-m.vpn, m.off+chunkEnd-m.vpn)
		if f == 0 {
			// Every page already private: a re-write is free.
			cur = chunkEnd
			continue
		}
		// The written window moves to a fresh private extent: shared pages
		// COW-faulted into it, already-private pages were re-homed.
		faults += f
		lo := cur - m.vpn
		hi := m.vpn + m.n - chunkEnd
		var buf [3]mapping
		repl := buf[:0]
		if lo > 0 {
			repl = append(repl, mapping{vpn: m.vpn, n: lo, off: m.off, ext: m.ext})
		}
		repl = append(repl, mapping{vpn: cur, n: chunkEnd - cur, off: 0, ext: as.newExtent(chunkEnd - cur)})
		if hi > 0 {
			repl = append(repl, mapping{vpn: chunkEnd, n: hi, off: m.off + m.n - hi, ext: m.ext})
		}
		as.splice(i, repl...)
		cur = chunkEnd
	}
	return faults
}

// demandPage maps [start, end) as fresh private pages, inserting the new
// mapping at index i (the caller's search result for start).
func (as *AddressSpace) demandPage(i, start, end int) {
	as.maps = slices.Insert(as.maps, i, mapping{vpn: start, n: end - start, off: 0, ext: as.newExtent(end - start)})
	if end > as.next {
		as.next = end
	}
	as.released = false
}

// Release drops every page mapping, decrementing shared reference counts.
// The address space is empty (but reusable) afterwards. Release is
// idempotent: a second call is a no-op, so racing teardown paths (keep-alive
// eviction vs fork-error cleanup) cannot double-decrement shared extents.
//
//molecule:hotpath
func (as *AddressSpace) Release() {
	if as.released {
		return
	}
	as.released = true
	for _, m := range as.maps {
		as.unref(m.ext, m.off, m.off+m.n)
	}
	as.maps = nil
}

// Released reports whether the address space has been released and not
// mapped into since.
func (as *AddressSpace) Released() bool { return as.released }

// RSSPages returns the resident set size in pages: every page mapped into
// this address space, shared or not.
func (as *AddressSpace) RSSPages() int {
	n := 0
	for _, m := range as.maps {
		n += m.n
	}
	return n
}

// PSSPages returns the proportional set size in pages: each page counts
// 1/refs, so shared pages are split among their sharers — the metric the
// paper uses to show cfork's memory savings (Fig 11c). It adds one term per
// page, in page order, so the float sum is the same as a per-page model's.
func (as *AddressSpace) PSSPages() float64 {
	var pss float64
	for _, m := range as.maps {
		m.ext.eachRun(m.off, m.off+m.n, func(n int, refs int32) {
			share := 1.0 / float64(refs)
			for ; n > 0; n-- {
				pss += share
			}
		})
	}
	return pss
}

// SharedPages returns the number of mapped pages with more than one
// reference.
func (as *AddressSpace) SharedPages() int {
	shared := 0
	for _, m := range as.maps {
		m.ext.eachRun(m.off, m.off+m.n, func(n int, refs int32) {
			if refs > 1 {
				shared += n
			}
		})
	}
	return shared
}

// eachRun calls fn, in page order, with the reference count of every run
// that overlaps pages [lo, hi) and the number of pages they share.
func (e *extent) eachRun(lo, hi int, fn func(n int, refs int32)) {
	for i := e.runAt(lo); i < len(e.runs) && e.start(i) < hi; i++ {
		fn(e.overlap(i, lo, hi), e.runs[i].refs)
	}
}
