package mem

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestMapUnmap(t *testing.T) {
	as := NewAddressSpace()
	start := as.Map(10)
	if as.RSSPages() != 10 {
		t.Fatalf("RSS = %d, want 10", as.RSSPages())
	}
	as.Unmap(start, 4)
	if as.RSSPages() != 6 {
		t.Fatalf("RSS after unmap = %d, want 6", as.RSSPages())
	}
	as.Unmap(start, 10) // partially already unmapped; must not panic
	if as.RSSPages() != 0 {
		t.Fatalf("RSS = %d, want 0", as.RSSPages())
	}
}

func TestMapReturnsDisjointRuns(t *testing.T) {
	as := NewAddressSpace()
	a := as.Map(5)
	b := as.Map(5)
	if b < a+5 {
		t.Fatalf("second run %d overlaps first [%d,%d)", b, a, a+5)
	}
}

func TestForkSharesAllPages(t *testing.T) {
	parent := NewAddressSpace()
	parent.Map(100)
	child := parent.Fork()
	if child.RSSPages() != 100 {
		t.Fatalf("child RSS = %d, want 100", child.RSSPages())
	}
	if got := child.PSSPages(); math.Abs(got-50) > 1e-9 {
		t.Fatalf("child PSS = %v, want 50 (all pages shared by 2)", got)
	}
	if parent.SharedPages() != 100 || child.SharedPages() != 100 {
		t.Fatal("fork did not share pages")
	}
}

func TestWriteBreaksCOW(t *testing.T) {
	parent := NewAddressSpace()
	start := parent.Map(10)
	child := parent.Fork()
	faults := child.Write(start, 4)
	if faults != 4 {
		t.Fatalf("faults = %d, want 4", faults)
	}
	// Child now has 4 private + 6 shared; PSS = 4 + 6/2 = 7.
	if got := child.PSSPages(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("child PSS = %v, want 7", got)
	}
	if got := parent.PSSPages(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("parent PSS = %v, want 7", got)
	}
	// Second write to the same pages: no further faults.
	if faults := child.Write(start, 4); faults != 0 {
		t.Fatalf("re-write faults = %d, want 0", faults)
	}
}

func TestWriteUnmappedDemandPages(t *testing.T) {
	as := NewAddressSpace()
	faults := as.Write(1000, 3)
	if faults != 3 {
		t.Fatalf("demand faults = %d, want 3", faults)
	}
	if as.RSSPages() != 3 {
		t.Fatalf("RSS = %d, want 3", as.RSSPages())
	}
	// Subsequent Map must not collide with demand-paged region.
	v := as.Map(2)
	if v < 1003 {
		t.Fatalf("Map returned %d inside demand-paged region", v)
	}
}

func TestReleaseDropsSharing(t *testing.T) {
	parent := NewAddressSpace()
	parent.Map(20)
	child := parent.Fork()
	child.Release()
	if child.RSSPages() != 0 {
		t.Fatal("release left pages mapped")
	}
	if got := parent.PSSPages(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("parent PSS after child release = %v, want 20", got)
	}
}

func TestMultiForkPSS(t *testing.T) {
	tmpl := NewAddressSpace()
	tmpl.Map(100)
	children := make([]*AddressSpace, 4)
	for i := range children {
		children[i] = tmpl.Fork()
	}
	// 5 sharers total: each PSS = 100/5 = 20.
	for i, c := range children {
		if got := c.PSSPages(); math.Abs(got-20) > 1e-9 {
			t.Fatalf("child %d PSS = %v, want 20", i, got)
		}
	}
}

// Property: RSS(parent)+RSS(child) is invariant under writes, and the sum of
// PSS over all address spaces sharing pages equals the number of distinct
// physical pages.
func TestPSSConservationProperty(t *testing.T) {
	f := func(nPages uint8, writes []uint8) bool {
		n := int(nPages%64) + 1
		parent := NewAddressSpace()
		start := parent.Map(n)
		child := parent.Fork()
		grandchild := child.Fork()
		spaces := []*AddressSpace{parent, child, grandchild}
		physical := float64(n) // distinct physical pages so far
		for i, w := range writes {
			target := spaces[i%3]
			vpn := start + int(w)%n
			physical += float64(target.Write(vpn, 1))
		}
		var pssSum float64
		for _, s := range spaces {
			pssSum += s.PSSPages()
		}
		return math.Abs(pssSum-physical) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: forking never changes the parent's RSS, and the child's RSS
// always equals the parent's at fork time.
func TestForkRSSProperty(t *testing.T) {
	f := func(nPages uint8) bool {
		n := int(nPages)%128 + 1
		parent := NewAddressSpace()
		parent.Map(n)
		before := parent.RSSPages()
		child := parent.Fork()
		return parent.RSSPages() == before && child.RSSPages() == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Release must be idempotent: keep-alive eviction and fork-error cleanup can
// both reach a template instance's teardown, and a double decrement would
// corrupt every sharer's refcounts (PSS drifts, later Releases underflow).
func TestReleaseIdempotent(t *testing.T) {
	parent := NewAddressSpace()
	parent.Map(100)
	child := parent.Fork()
	if parent.PSSPages() != 50 {
		t.Fatalf("shared PSS = %v, want 50", parent.PSSPages())
	}
	child.Release()
	if !child.Released() {
		t.Error("child not marked released")
	}
	child.Release() // second call must be a no-op
	child.Release()
	if got := parent.PSSPages(); got != 100 {
		t.Errorf("parent PSS after double release = %v, want 100", got)
	}
	if got := parent.RSSPages(); got != 100 {
		t.Errorf("parent RSS after double release = %v, want 100", got)
	}
	// A released space is reusable: mapping in fresh pages revives it.
	child.Map(10)
	if child.Released() {
		t.Error("mapped space still marked released")
	}
	if got := child.PSSPages(); got != 10 {
		t.Errorf("revived child PSS = %v, want 10", got)
	}
}

// Release on a revived space must drop only the new mappings.
func TestReleaseReviveRelease(t *testing.T) {
	parent := NewAddressSpace()
	parent.Map(64)
	child := parent.Fork()
	child.Release()
	child.Map(8)
	child.Release()
	if got := parent.PSSPages(); got != 64 {
		t.Errorf("parent PSS = %v, want 64", got)
	}
	if got := child.RSSPages(); got != 0 {
		t.Errorf("child RSS = %v, want 0", got)
	}
}

// Fork is on the template fan-out hot path: pin its allocation count so a
// refcount-layout change cannot silently turn cold starts quadratic. A whole
// warm cold start on one template family allocates the same two objects:
// the child's mappings fit its spare slots, splice edits them in place, and
// its extents come off the family's free list and go back on it.
func TestForkAllocsPinned(t *testing.T) {
	tmpl := NewAddressSpace()
	tmpl.Map(3072)
	tmpl.Write(0, 3072)
	allocs := testing.AllocsPerRun(200, func() {
		c := tmpl.Fork()
		c.Release()
	})
	// One alloc for the AddressSpace, one for its mapping slice.
	if allocs > 2 {
		t.Errorf("Fork+Release = %.1f allocs, want <= 2", allocs)
	}

	coldCycle(tmpl) // fills the free list
	free := tmpl.pool.n
	if allocs := testing.AllocsPerRun(200, func() { coldCycle(tmpl) }); allocs != 2 {
		t.Errorf("Fork+Map+Write+Release = %.1f allocs, want 2 (the AddressSpace and its mapping slice)", allocs)
	}
	if got := tmpl.pool.n; got != free {
		t.Errorf("free list holds %d extents after warm cycles, want %d: a cycle made or lost extents", got, free)
	}
}

// The page counts of coldCycle: a Python template's runtime footprint, a
// function's private working set, and the runtime pages its load dirties.
const (
	coldTemplatePages = 3072
	coldPrivatePages  = 1024
	coldDirtyPages    = 1597
)

// coldCycle is one cold start's address-space work, shaped like a cfork
// followed by LoadFunction: fork the template, map the function's private
// pages, dirty part of the runtime's pages, and exit.
func coldCycle(tmpl *AddressSpace) {
	c := tmpl.Fork()
	c.Map(coldPrivatePages)
	c.Write(0, coldDirtyPages)
	c.Release()
}

// TestAddressSpaceColdCycle runs warm cold-start cycles on one template
// family and checks that each leaves the template as it found it: sole
// owner of every page, with the free list neither growing nor shrinking.
func TestAddressSpaceColdCycle(t *testing.T) {
	tmpl := NewAddressSpace()
	tmpl.Map(coldTemplatePages)
	coldCycle(tmpl)
	free := tmpl.pool.n
	for i := 0; i < 100; i++ {
		coldCycle(tmpl)
		if got := tmpl.PSSPages(); got != coldTemplatePages {
			t.Fatalf("cycle %d: template PSS = %v, want %d", i, got, coldTemplatePages)
		}
		if got := tmpl.pool.n; got != free {
			t.Fatalf("cycle %d: free list holds %d extents, want %d", i, got, free)
		}
	}
}

// BenchmarkAddressSpaceColdCycle measures coldCycle on a warm template
// family: two allocations per cycle, whatever the page counts.
func BenchmarkAddressSpaceColdCycle(b *testing.B) {
	tmpl := NewAddressSpace()
	tmpl.Map(coldTemplatePages)
	coldCycle(tmpl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldCycle(tmpl)
	}
}

// Host cost must not scale with the simulated size: mapping, forking,
// privatizing a write and releasing allocate the same bytes for an 8-page
// space as for a Node template's 7680 pages.
func TestAllocBytesIndependentOfPages(t *testing.T) {
	perRun := func(n int) uint64 {
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			parent := NewAddressSpace()
			parent.Map(n)
			child := parent.Fork()
			child.Write(1, n-2)
			child.Release()
			parent.Release()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	perRun(8) // warm up
	if small, large := perRun(8), perRun(7680); small != large {
		t.Errorf("allocated %d B/op at 8 pages, %d B/op at 7680 pages; want equal", small, large)
	}
}

// refExtent, refMapping and refSpace are the per-page reference model the
// run-length extents replaced, kept verbatim apart from the names:
// FuzzAddressSpace checks that both give the same fault counts, mappings,
// RSS, PSS and shared-page counts. refs[i] counts how many address spaces
// currently map page i of the refExtent; a page with refs 0 is orphaned and
// never counted again.
type refExtent struct {
	refs []int32
}

// refMapping is a window of an refExtent mapped at a contiguous virtual range:
// virtual page vpn+i is backed by ext.refs[off+i] for i in [0, n).
type refMapping struct {
	vpn int
	n   int
	off int
	ext *refExtent
}

// refSpace is a process's page table: a sorted, non-overlapping list of
// refExtent windows.
type refSpace struct {
	maps []refMapping
	next int // next unused virtual page number for Map allocations
	// released guards the refcount decrement in Release: an address space
	// can be torn down from more than one path (keep-alive eviction vs an
	// in-flight fork's error cleanup), and decrementing shared extents
	// twice would silently corrupt every sharer's PSS.
	released bool
}

func newRefExtent(n int) *refExtent {
	e := &refExtent{refs: make([]int32, n)}
	for i := range e.refs {
		e.refs[i] = 1
	}
	return e
}

// search returns the index of the first refMapping whose end lies beyond vpn —
// the refMapping containing vpn if one exists, otherwise the insertion point.
func (as *refSpace) search(vpn int) int {
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
func (as *refSpace) splice(i int, repl ...refMapping) {
	tail := as.maps[i+1:]
	out := make([]refMapping, 0, len(as.maps)-1+len(repl))
	out = append(out, as.maps[:i]...)
	out = append(out, repl...)
	out = append(out, tail...)
	as.maps = out
}

// Map allocates n fresh private pages and returns the first virtual page
// number of the contiguous run.
func (as *refSpace) Map(n int) int {
	start := as.next
	if n > 0 {
		// as.next never lies inside an existing refMapping (Map and demand
		// paging both advance it past what they touch), so appending keeps
		// the list sorted.
		as.maps = append(as.maps, refMapping{vpn: start, n: n, off: 0, ext: newRefExtent(n)})
		as.next += n
		as.released = false // refMapping into a released space revives it
	}
	return start
}

// Unmap releases n pages starting at virtual page vpn. Unmapping a hole is
// a no-op for the missing pages.
func (as *refSpace) Unmap(vpn, n int) {
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
		for p := cur; p < chunkEnd; p++ {
			m.ext.refs[m.off+p-m.vpn]--
		}
		lo := cur - m.vpn
		hi := m.vpn + m.n - chunkEnd
		var repl []refMapping
		if lo > 0 {
			repl = append(repl, refMapping{vpn: m.vpn, n: lo, off: m.off, ext: m.ext})
		}
		if hi > 0 {
			repl = append(repl, refMapping{vpn: chunkEnd, n: hi, off: m.off + m.n - hi, ext: m.ext})
		}
		as.splice(i, repl...)
		cur = chunkEnd
	}
}

// Fork returns a copy-on-write clone: every page is shared with the parent
// and each side's first write will privatize its copy.
func (as *refSpace) Fork() *refSpace {
	child := &refSpace{maps: make([]refMapping, len(as.maps)), next: as.next}
	copy(child.maps, as.maps)
	for _, m := range as.maps {
		refs := m.ext.refs[m.off : m.off+m.n]
		for i := range refs {
			refs[i]++
		}
	}
	return child
}

// Write dirties n pages starting at vpn, breaking copy-on-write sharing.
// It returns the number of pages that were actually copied (i.e. the number
// of COW faults), which the OS model converts into fault latency.
func (as *refSpace) Write(vpn, n int) int {
	faults := 0
	end := vpn + n
	cur := vpn
	for cur < end {
		i := as.search(cur)
		if i == len(as.maps) || as.maps[i].vpn >= end {
			// Pure hole until end: demand-page it in one refExtent.
			faults += end - cur
			as.demandPage(i, cur, end)
			cur = end
			break
		}
		m := as.maps[i]
		if cur < m.vpn {
			// Hole before the next refMapping.
			faults += m.vpn - cur
			as.demandPage(i, cur, m.vpn)
			cur = m.vpn
			continue
		}
		chunkEnd := m.vpn + m.n
		if end < chunkEnd {
			chunkEnd = end
		}
		refs := m.ext.refs[m.off+cur-m.vpn : m.off+chunkEnd-m.vpn]
		shared := false
		for _, r := range refs {
			if r > 1 {
				shared = true
				break
			}
		}
		if !shared {
			// Every page already private: a re-write is free.
			cur = chunkEnd
			continue
		}
		// Privatize the written window: shared pages COW-fault into the new
		// refExtent; already-private pages migrate with their count intact
		// (refs 1 -> this space is the sole owner, so the old slot orphans
		// to 0 and the page is simply re-homed).
		ne := &refExtent{refs: make([]int32, len(refs))}
		for j, r := range refs {
			if r > 1 {
				refs[j]--
				faults++
			} else {
				refs[j] = 0
			}
			ne.refs[j] = 1
		}
		lo := cur - m.vpn
		hi := m.vpn + m.n - chunkEnd
		repl := make([]refMapping, 0, 3)
		if lo > 0 {
			repl = append(repl, refMapping{vpn: m.vpn, n: lo, off: m.off, ext: m.ext})
		}
		repl = append(repl, refMapping{vpn: cur, n: chunkEnd - cur, off: 0, ext: ne})
		if hi > 0 {
			repl = append(repl, refMapping{vpn: chunkEnd, n: hi, off: m.off + m.n - hi, ext: m.ext})
		}
		as.splice(i, repl...)
		cur = chunkEnd
	}
	return faults
}

// demandPage maps [start, end) as fresh private pages, inserting the new
// refMapping at index i (the caller's search result for start).
func (as *refSpace) demandPage(i, start, end int) {
	as.splice2(i, refMapping{vpn: start, n: end - start, off: 0, ext: newRefExtent(end - start)})
	if end > as.next {
		as.next = end
	}
	as.released = false
}

// splice2 inserts a refMapping before index i (without replacing anything).
func (as *refSpace) splice2(i int, m refMapping) {
	as.maps = append(as.maps, refMapping{})
	copy(as.maps[i+1:], as.maps[i:])
	as.maps[i] = m
}

// Release drops every page refMapping, decrementing shared reference counts.
// The address space is empty (but reusable) afterwards. Release is
// idempotent: a second call is a no-op, so racing teardown paths (keep-alive
// eviction vs fork-error cleanup) cannot double-decrement shared extents.
func (as *refSpace) Release() {
	if as.released {
		return
	}
	as.released = true
	for _, m := range as.maps {
		refs := m.ext.refs[m.off : m.off+m.n]
		for i := range refs {
			refs[i]--
		}
	}
	as.maps = nil
}

// Released reports whether the address space has been released and not
// mapped into since.
func (as *refSpace) Released() bool { return as.released }

// RSSPages returns the resident set size in pages: every page mapped into
// this address space, shared or not.
func (as *refSpace) RSSPages() int {
	n := 0
	for _, m := range as.maps {
		n += m.n
	}
	return n
}

// PSSPages returns the proportional set size in pages: each page counts
// 1/refs, so shared pages are split among their sharers — the metric the
// paper uses to show cfork's memory savings (Fig 11c).
func (as *refSpace) PSSPages() float64 {
	var pss float64
	for _, m := range as.maps {
		for _, r := range m.ext.refs[m.off : m.off+m.n] {
			pss += 1.0 / float64(r)
		}
	}
	return pss
}

// SharedPages returns the number of mapped pages with more than one
// reference.
func (as *refSpace) SharedPages() int {
	n := 0
	for _, m := range as.maps {
		for _, r := range m.ext.refs[m.off : m.off+m.n] {
			if r > 1 {
				n++
			}
		}
	}
	return n
}

// checkFamilies reports a broken in-place invariant across the live spaces:
// two spaces sharing a mapping list's backing array (an in-place edit of
// one would rewrite the other), an extent on a free list twice, or an
// extent on a free list that a live mapping still reaches.
func checkFamilies(t *testing.T, step int, spaces []*AddressSpace) {
	t.Helper()
	free := make(map[*extent]bool)
	seen := make(map[*extentPool]bool)
	for i, as := range spaces {
		if c := cap(as.maps); c > 0 {
			for j, o := range spaces[i+1:] {
				if cap(o.maps) > 0 && &as.maps[:c][0] == &o.maps[:cap(o.maps)][0] {
					t.Fatalf("step %d: spaces %d and %d share a mapping array", step, i, i+1+j)
				}
			}
		}
		if as.pool == nil || seen[as.pool] {
			continue
		}
		seen[as.pool] = true
		for _, e := range as.pool.free[:as.pool.n] {
			if free[e] {
				t.Fatalf("step %d: extent %p is on a free list twice", step, e)
			}
			free[e] = true
		}
	}
	for i, as := range spaces {
		for j, m := range as.maps {
			if free[m.ext] {
				t.Fatalf("step %d space %d: mapping %d %+v reaches a free extent", step, i, j, m)
			}
		}
	}
}

// checkRuns reports a broken run invariant in any extent as maps: run ends
// strictly increasing, no two equal neighbours, no negative refs, and every
// window inside its extent.
func checkRuns(t *testing.T, as *AddressSpace) {
	t.Helper()
	for _, m := range as.maps {
		runs := m.ext.runs
		if len(runs) == 0 || m.off+m.n > runs[len(runs)-1].end {
			t.Fatalf("window [%d,%d) outside extent runs %v", m.off, m.off+m.n, runs)
		}
		for i, r := range runs {
			if r.refs < 0 || r.end <= m.ext.start(i) || (i > 0 && r.refs == runs[i-1].refs) {
				t.Fatalf("extent runs %v break the invariant at run %d", runs, i)
			}
		}
	}
}

// FuzzAddressSpace decodes bytes into Map/Fork/Write/Unmap/Release sequences
// over four address spaces, four bytes per operation (op, space, a, b), and
// runs each against the run-length extents and the per-page refSpace. After
// every operation both must agree on Write's fault count, the mapping list,
// and every space's RSS, shared pages and PSS (bit for bit), every extent
// must keep its run invariant, and checkFamilies must hold. A released
// space that Map or Write revives must be live again and match the
// reference like any other. Fork(src=space, dst=a%4) overwrites
// dst without releasing it, which leaves its references held for good.
// Only the first maxFuzzOps operations run: Map grows a space without bound,
// and the per-page reference checks make long inputs quadratic.
func FuzzAddressSpace(f *testing.F) {
	const maxFuzzOps = 256
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*maxFuzzOps {
			data = data[:4*maxFuzzOps]
		}
		var got [4]*AddressSpace
		var want [4]*refSpace
		for i := range got {
			got[i], want[i] = NewAddressSpace(), &refSpace{}
		}
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			op, s, a, b := data[0]%5, int(data[1]%4), int(data[2]%64), int(data[3]%32)
			revives := got[s].Released() && (op == 0 || op == 2) && b > 0
			switch op {
			case 0:
				if g, w := got[s].Map(b), want[s].Map(b); g != w {
					t.Fatalf("step %d: Map(%d) = %d, reference %d", step, b, g, w)
				}
			case 1:
				got[a%4], want[a%4] = got[s].Fork(), want[s].Fork()
			case 2:
				if g, w := got[s].Write(a, b), want[s].Write(a, b); g != w {
					t.Fatalf("step %d: Write(%d, %d) faults = %d, reference %d", step, a, b, g, w)
				}
			case 3:
				got[s].Unmap(a, b)
				want[s].Unmap(a, b)
			case 4:
				got[s].Release()
				want[s].Release()
			}
			if revives && got[s].Released() {
				t.Fatalf("step %d: op %d on released space %d left it released", step, op, s)
			}
			checkFamilies(t, step, got[:])
			for i, g := range got {
				w := want[i]
				checkRuns(t, g)
				if len(g.maps) != len(w.maps) || g.Released() != w.Released() {
					t.Fatalf("step %d space %d: %d mappings (released %v), reference %d (released %v)",
						step, i, len(g.maps), g.Released(), len(w.maps), w.Released())
				}
				for j, m := range g.maps {
					if wm := w.maps[j]; m.vpn != wm.vpn || m.n != wm.n || m.off != wm.off {
						t.Fatalf("step %d space %d: mapping %d = %+v, reference %+v", step, i, j, m, wm)
					}
				}
				if g.RSSPages() != w.RSSPages() || g.SharedPages() != w.SharedPages() || g.PSSPages() != w.PSSPages() {
					t.Fatalf("step %d space %d: RSS/shared/PSS = %d/%d/%v, reference %d/%d/%v", step, i,
						g.RSSPages(), g.SharedPages(), g.PSSPages(), w.RSSPages(), w.SharedPages(), w.PSSPages())
				}
			}
		}
	})
}
