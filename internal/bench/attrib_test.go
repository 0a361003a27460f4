package bench

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/attrib"
)

// TestAttribDemoExactness runs the attribution demo workload — cold, warm,
// DPU-pinned, FPGA- and GPU-pinned invokes plus chains — and enforces the
// exactness invariant on every invocation: stages sum to the root span
// duration to the nanosecond and nothing lands in the unclassified bucket.
func TestAttribDemoExactness(t *testing.T) {
	o, an, err := AttribDemo()
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Invocations) == 0 {
		t.Fatal("demo attributed no invocations")
	}
	kinds := map[string]bool{}
	for i := range an.Invocations {
		inv := &an.Invocations[i]
		if r := inv.Residue(); r != 0 {
			t.Errorf("invocation %d (%s): residue %v — total %v vs stage sum %v",
				inv.Root.ID, inv.Fn, r, inv.Total, inv.Stages.Sum())
		}
		if other := inv.Stages.Get(attrib.StageOther); other != 0 {
			t.Errorf("invocation %d: %v charged to %q", inv.Root.ID, other, attrib.StageOther)
		}
		if inv.Kind != "" {
			kinds[inv.Kind] = true
		}
	}
	// The demo pins invokes onto all four PU kinds; attribution must see
	// each of them.
	for _, k := range []string{"CPU", "DPU", "FPGA", "GPU"} {
		if !kinds[k] {
			t.Errorf("no invocation attributed to PU kind %s", k)
		}
	}
	if o.SLO == nil {
		t.Fatal("demo observer has no SLO engine attached")
	}
	if sts := o.SLO.Status(); len(sts) == 0 {
		t.Error("SLO engine recorded nothing")
	}
}

// TestShardedAttribDemo locks the attribution outputs — the breakdown table,
// the folded-stack profile, and the SLO JSON document — to identical bytes
// on both kernels. The analyzer iterates recorded span order
// and fixed stage arrays, so one reordered nanosecond anywhere shows up.
func TestShardedAttribDemo(t *testing.T) {
	var refTable, refFolded, refSLO []byte
	for _, k := range kernels {
		withKernel(k, func() {
			o, an, err := AttribDemo()
			if err != nil {
				t.Fatalf("%v kernel: %v", k, err)
			}
			var table, folded, slo bytes.Buffer
			an.BreakdownTable().Fprint(&table)
			if err := an.WriteFolded(&folded); err != nil {
				t.Fatalf("%v kernel: %v", k, err)
			}
			if err := o.SLO.WriteJSON(&slo); err != nil {
				t.Fatalf("%v kernel: %v", k, err)
			}
			if refTable == nil {
				refTable, refFolded, refSLO = table.Bytes(), folded.Bytes(), slo.Bytes()
				return
			}
			if !bytes.Equal(table.Bytes(), refTable) {
				t.Fatalf("windowed kernel: breakdown table diverges:\n%s\nvs\n%s", table.String(), refTable)
			}
			if !bytes.Equal(folded.Bytes(), refFolded) {
				t.Fatalf("windowed kernel: folded profile diverges:\n%s\nvs\n%s", folded.String(), refFolded)
			}
			if !bytes.Equal(slo.Bytes(), refSLO) {
				t.Fatalf("windowed kernel: SLO JSON diverges:\n%s\nvs\n%s", slo.String(), refSLO)
			}
		})
	}
}

// TestShardSoakTelemetry pins the soak's window telemetry: at a fixed
// partitioning the per-round counters render to identical bytes on a repeat
// run, and attaching the observer leaves the simulation fingerprint
// untouched.
func TestShardSoakTelemetry(t *testing.T) {
	const machines, invocations, shards = 4, 800, 4
	plain, err := ShardSoak(ShardSoakConfig{Machines: machines, Invocations: invocations, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for run := 0; run < 2; run++ {
		wt := &obs.WindowTelemetry{}
		res, err := ShardSoak(ShardSoakConfig{
			Machines: machines, Invocations: invocations,
			Shards: shards, Telemetry: wt,
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Fingerprint != plain.Fingerprint {
			t.Fatalf("run %d: telemetry changed the fingerprint\n got  %s\n want %s",
				run, res.Fingerprint, plain.Fingerprint)
		}
		if wt.Rounds() == 0 {
			t.Fatalf("run %d: soak reported no windowed rounds", run)
		}
		var buf bytes.Buffer
		if err := wt.WriteText(&buf); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("run %d: telemetry diverges:\n%s\nvs\n%s", run, buf.String(), ref)
		}
	}
}
