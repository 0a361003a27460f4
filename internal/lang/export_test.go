package lang

// Intersect returns s ∩ o. The intersection of two dependency-closed sets
// is itself dependency-closed.
func (s PkgSet) Intersect(o PkgSet) PkgSet { return s.appendIntersect(nil, o) }
