package a

import "testing"

func TestA(t *testing.T) {
	Unused()
	T{}.OwnTestOnly()
}
