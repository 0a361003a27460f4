package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment report and chaos soak output")

// TestGoldenReport locks the entire harness output against a golden file:
// the simulation is deterministic, so any diff means a calibration or
// behavior change. Regenerate intentionally with:
//
//	go test ./internal/bench -run Golden -update
func TestGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	var buf bytes.Buffer
	Report(&buf, 0, false)
	golden := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden report rewritten (%d bytes)", buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden report; run with -update first: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		// Find the first differing line for a useful message.
		gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("report diverges from golden at line %d:\n  got:  %s\n  want: %s\n(run with -update if intentional)",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("report length changed: %d vs %d lines (run with -update if intentional)",
			len(gotLines), len(wantLines))
	}
}
