package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestParallelMatchesSequential is the determinism contract of the parallel
// runner: every experiment owns an isolated sim.Env and results are emitted
// in evaluation-section order, so a 4-worker run must produce exactly the
// bytes of a 1-worker run — and both must match the golden report.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	var seq, par bytes.Buffer
	Report(&seq, 1, false)
	Report(&par, 4, false)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatal("parallel report differs from sequential report")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "report.golden"))
	if err != nil {
		t.Fatalf("no golden report: %v", err)
	}
	if !bytes.Equal(par.Bytes(), want) {
		t.Fatal("parallel report differs from golden report")
	}
}

// TestMarkdownParallelMatchesSequential covers the markdown renderer's
// ordering the same way, on a cheaper two-worker run.
func TestMarkdownParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	var seq, par bytes.Buffer
	Report(&seq, 1, true)
	Report(&par, 2, true)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatal("parallel markdown report differs from sequential")
	}
}

// TestByIDIndex pins the map-backed lookups that replaced the linear scans.
func TestByIDIndex(t *testing.T) {
	for _, e := range All() {
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Fatalf("ByID(%q) = %v, %v", e.ID, got.ID, ok)
		}
	}
	if _, ok := ByID("no-such-experiment"); ok {
		t.Fatal("ByID invented an experiment")
	}
	// Known evaluation-section IDs sort ahead of unlisted (appendix) IDs.
	if order("fig2a") != 0 || order("tab5") >= order("zzz-unknown") {
		t.Fatal("evaluation-section ordering broken")
	}
}
