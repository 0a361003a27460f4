package mem_test

import (
	"testing"

	"repro/internal/sim/simbench"
)

// BenchmarkAddressSpaceForkFanout runs the shared simbench body (also the
// benchmark harness's mem.fork_fanout ladder rung):
// fork 64 children off a 3072-page template, COW-break a small private
// working set in each, and release them. External test package because simbench itself
// imports mem.
func BenchmarkAddressSpaceForkFanout(b *testing.B) { simbench.AddressSpaceForkFanout(b) }
