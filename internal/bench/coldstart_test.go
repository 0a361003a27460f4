package bench

import "testing"

// TestColdStartZygoteBeatsFlat is the headline acceptance check: on the
// seeded Zipf stream the zygote forest must beat flat cfork on mean
// cold-start latency without spending more memory (total PSS, instances +
// templates).
func TestColdStartZygoteBeatsFlat(t *testing.T) {
	res, err := ColdStartSweep(240)
	if err != nil {
		t.Fatal(err)
	}
	if res.Zygote.ColdStarts != res.Flat.ColdStarts {
		t.Fatalf("arm sizes differ: flat %d vs zygote %d", res.Flat.ColdStarts, res.Zygote.ColdStarts)
	}
	if res.Zygote.MeanStartupMS >= res.Flat.MeanStartupMS {
		t.Errorf("zygote mean %.2fms not better than flat %.2fms",
			res.Zygote.MeanStartupMS, res.Flat.MeanStartupMS)
	}
	if res.Zygote.P95StartupMS > res.Flat.P95StartupMS {
		t.Errorf("zygote p95 %.2fms worse than flat %.2fms",
			res.Zygote.P95StartupMS, res.Flat.P95StartupMS)
	}
	if res.Zygote.TotalPSSMB > res.Flat.TotalPSSMB {
		t.Errorf("zygote total PSS %.1fMB exceeds flat %.1fMB",
			res.Zygote.TotalPSSMB, res.Flat.TotalPSSMB)
	}
	if res.Zygote.TreeNodes <= res.Flat.TreeNodes {
		t.Errorf("zygote grew %d nodes, flat %d — fitter never specialized",
			res.Zygote.TreeNodes, res.Flat.TreeNodes)
	}
	if res.Flat.FitRounds != 0 {
		t.Errorf("flat arm ran %d fit rounds, want 0 (budget disabled)", res.Flat.FitRounds)
	}
	t.Logf("flat  %.2fms mean / %.1fMB PSS; zygote %.2fms mean / %.1fMB PSS (%.2fx speedup)",
		res.Flat.MeanStartupMS, res.Flat.TotalPSSMB,
		res.Zygote.MeanStartupMS, res.Zygote.TotalPSSMB, res.SpeedupMean)
}

// TestColdStartDeterminism asserts the whole experiment — invocation
// latencies, final forest shapes, PSS accounting — is byte-identical
// between the classic sequential kernel and the sharded windowed kernel.
// ColdStartArmSweep itself errors on fingerprint mismatch.
func TestColdStartDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-kernel sweep")
	}
	cfg := defaultColdStartConfig()
	cfg.Invocations = 160
	for _, zygote := range []bool{false, true} {
		arm, err := ColdStartArmSweep(cfg, zygote)
		if err != nil {
			t.Fatal(err)
		}
		if arm.ColdStarts != cfg.Invocations {
			t.Errorf("%s: %d cold starts, want %d", arm.Mode, arm.ColdStarts, cfg.Invocations)
		}
	}
}
