package mem_test

import (
	"testing"

	"repro/internal/sim/simbench"
)

// BenchmarkAddressSpaceForkFanout runs the shared simbench body (also
// exported into BENCH_kernel.json by `molecule-bench -scenario kernel`):
// fork 64 children off a 3072-page template, COW-break a small private
// working set in each, and release them. External test package because simbench itself
// imports mem.
func BenchmarkAddressSpaceForkFanout(b *testing.B) { simbench.AddressSpaceForkFanout(b) }
