// Package a holds one exported name per case the exports scan must sort.
package a

// T is used: its methods name it as their receiver. Its field Unused
// declares a name, which does not count as a use of func Unused.
type T struct{ Unused int }

// Used is called from package b.
func Used() {}

// Unused is named only by a test, by testdata and by a field: dead.
func Unused() {}

// Allowed has no caller but is on the allowlist.
func Allowed() {}

// BenchOnly is called only from benchmark/.
func BenchOnly() {}

// Recurse calls only itself: dead.
func Recurse(n int) {
	if n > 0 {
		Recurse(n - 1)
	}
}

// OwnTestOnly is used only by this package's tests.
func (T) OwnTestOnly() {}

// Shared is used by package b's tests.
func (T) Shared() {}
