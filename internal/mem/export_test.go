package mem

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
		as.unref(m.ext, m.off+cur-m.vpn, m.off+chunkEnd-m.vpn)
		lo := cur - m.vpn
		hi := m.vpn + m.n - chunkEnd
		var buf [2]mapping
		repl := buf[:0]
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
