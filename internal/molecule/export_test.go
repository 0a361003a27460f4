package molecule

// TotalFor returns the summed charge for one function.
func (b *Billing) TotalFor(fn string) float64 {
	if f := b.fns[fn]; f != nil {
		return f.total
	}
	return 0
}
