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

// AddressSpace is a process's page table: a sorted, non-overlapping list of
// extent windows.
type AddressSpace struct {
	maps []mapping
	next int // next unused virtual page number for Map allocations
	// released guards the refcount decrement in Release: an address space
	// can be torn down from more than one path (keep-alive eviction vs an
	// in-flight fork's error cleanup), and decrementing shared extents
	// twice would silently corrupt every sharer's PSS.
	released bool
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{}
}

// newExtent returns n pages with one reference each, in one allocation.
func newExtent(n int) *extent {
	e := &extent{}
	e.first[0] = run{end: n, refs: 1}
	e.runs = e.first[:]
	return e
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

// splice replaces as.maps[i] with the given replacement mappings.
func (as *AddressSpace) splice(i int, repl ...mapping) {
	tail := as.maps[i+1:]
	out := make([]mapping, 0, len(as.maps)-1+len(repl))
	out = append(out, as.maps[:i]...)
	out = append(out, repl...)
	out = append(out, tail...)
	as.maps = out
}

// Map allocates n fresh private pages and returns the first virtual page
// number of the contiguous run.
func (as *AddressSpace) Map(n int) int {
	start := as.next
	if n > 0 {
		// as.next never lies inside an existing mapping (Map and demand
		// paging both advance it past what they touch), so appending keeps
		// the list sorted.
		as.maps = append(as.maps, mapping{vpn: start, n: n, off: 0, ext: newExtent(n)})
		as.next += n
		as.released = false // mapping into a released space revives it
	}
	return start
}

// Unmap releases n pages starting at virtual page vpn. Unmapping a hole is
// a no-op for the missing pages.
func (as *AddressSpace) Unmap(vpn, n int) {
	end := vpn + n
	cur := vpn
	for cur < end {
		i := as.search(cur)
		if i >= len(as.maps) {
			return
		}
		m := as.maps[i]
		if m.vpn >= end {
			return
		}
		if cur < m.vpn {
			cur = m.vpn
		}
		chunkEnd := m.vpn + m.n
		if end < chunkEnd {
			chunkEnd = end
		}
		m.ext.add(m.off+cur-m.vpn, m.off+chunkEnd-m.vpn, -1)
		lo := cur - m.vpn
		hi := m.vpn + m.n - chunkEnd
		var repl []mapping
		if lo > 0 {
			repl = append(repl, mapping{vpn: m.vpn, n: lo, off: m.off, ext: m.ext})
		}
		if hi > 0 {
			repl = append(repl, mapping{vpn: chunkEnd, n: hi, off: m.off + m.n - hi, ext: m.ext})
		}
		as.splice(i, repl...)
		cur = chunkEnd
	}
}

// Fork returns a copy-on-write clone: every page is shared with the parent
// and each side's first write will privatize its copy.
//
//molecule:hotpath
func (as *AddressSpace) Fork() *AddressSpace {
	child := &AddressSpace{maps: make([]mapping, len(as.maps)), next: as.next}
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
		repl := make([]mapping, 0, 3)
		if lo > 0 {
			repl = append(repl, mapping{vpn: m.vpn, n: lo, off: m.off, ext: m.ext})
		}
		repl = append(repl, mapping{vpn: cur, n: chunkEnd - cur, off: 0, ext: newExtent(chunkEnd - cur)})
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
	as.splice2(i, mapping{vpn: start, n: end - start, off: 0, ext: newExtent(end - start)})
	if end > as.next {
		as.next = end
	}
	as.released = false
}

// splice2 inserts a mapping before index i (without replacing anything).
func (as *AddressSpace) splice2(i int, m mapping) {
	as.maps = append(as.maps, mapping{})
	copy(as.maps[i+1:], as.maps[i:])
	as.maps[i] = m
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
		m.ext.add(m.off, m.off+m.n, -1)
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
