package bench

import "testing"

// TestClusterSoakDeterministic runs one sweep point twice; both runs must
// produce the byte-identical fingerprint.
func TestClusterSoakDeterministic(t *testing.T) {
	r, err := ClusterSoak(2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests == 0 {
		t.Fatal("soak produced no requests")
	}
	if r.Errors != 0 {
		t.Fatalf("soak produced %d errors", r.Errors)
	}
	again, err := ClusterSoak(2)
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint != r.Fingerprint {
		t.Fatalf("repeat run diverged:\n  got  %s\n  want %s", again.Fingerprint, r.Fingerprint)
	}
}

// TestClusterSoakSweepScales pins the headline scaling claim: the checked-in
// sweep config must reach at least 2.5x virtual-time throughput at four
// machines versus one. Everything here is virtual-time arithmetic, so the
// assertion is exact and reproducible, not a wall-clock flake.
func TestClusterSoakSweepScales(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	res, err := ClusterSoakSweep([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	last := res[len(res)-1]
	if last.Speedup < 2.5 {
		t.Fatalf("4-machine speedup = %.2f, want >= 2.5", last.Speedup)
	}
	for _, r := range res {
		if r.Errors != 0 {
			t.Fatalf("machines=%d: %d errors", r.Machines, r.Errors)
		}
	}
}
