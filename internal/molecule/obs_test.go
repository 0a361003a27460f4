package molecule

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sandbox"
	"repro/internal/sim"
)

var updateTrace = flag.Bool("update-trace", false, "rewrite the golden Chrome trace")

// observedInvoke runs one DPU-pinned cold invocation on a two-PU machine
// with observability attached and returns the observer and result.
func observedInvoke(t *testing.T) (*obs.Observer, Result) {
	t.Helper()
	var o *obs.Observer
	var res Result
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		o = obs.New(p.Env())
		rt.SetObserver(o)
		dpu := rt.Machine.PUsOfKind(hw.DPU)[0].ID
		if err := rt.Deploy(p, "helloworld",
			DefaultProfile(hw.CPU), DefaultProfile(hw.DPU)); err != nil {
			t.Fatal(err)
		}
		var err error
		res, err = rt.Invoke(p, "helloworld", InvokeOptions{PU: dpu})
		if err != nil {
			t.Fatal(err)
		}
	})
	return o, res
}

// TestInvocationSpanTree pins the acceptance criteria for the instrumented
// invocation path: the root "invoke" span's duration equals Result.Total,
// and the tree covers placement → nIPC → sandbox → handler.
func TestInvocationSpanTree(t *testing.T) {
	o, res := observedInvoke(t)

	root, ok := o.Tracer.Find("invoke")
	if !ok {
		t.Fatal("no invoke span recorded")
	}
	if root.Parent != 0 {
		t.Errorf("invoke span is not a root (parent %d)", root.Parent)
	}
	if got := time.Duration(root.End - root.Start); got != res.Total {
		t.Errorf("root span duration %v != Result.Total %v", got, res.Total)
	}

	// The tree must include every stage of the invocation path.
	for _, name := range []string{
		"sandbox.acquire", "placement", "nipc.command",
		"sandbox.create", "sandbox.start", "handler",
	} {
		sp, ok := o.Tracer.Find(name)
		if !ok {
			t.Errorf("span %q missing from the tree", name)
			continue
		}
		if sp.Parent == 0 {
			t.Errorf("span %q has no parent", name)
		}
	}

	// The handler ran on the pinned DPU, so its span sits on that PU's
	// track; the acquire span learned the placement too.
	handler, _ := o.Tracer.Find("handler")
	if handler.PU != int(res.PU) {
		t.Errorf("handler span on PU %d, want %d", handler.PU, res.PU)
	}
	acquire, _ := o.Tracer.Find("sandbox.acquire")
	if acquire.Parent != root.ID {
		t.Errorf("sandbox.acquire parented to %d, want root %d", acquire.Parent, root.ID)
	}
	kids := o.Tracer.Children(acquire.ID)
	if len(kids) == 0 {
		t.Error("sandbox.acquire has no children (placement/sandbox.* should nest under it)")
	}

	// Cold-start metrics recorded against the DPU.
	pl := obs.L("pu", "1")
	if got := o.Metrics.Counter("molecule_cold_starts_total", pl, obs.L("fn", "helloworld")).Value(); got != 1 {
		t.Errorf("cold-start counter = %d, want 1", got)
	}
	if got := o.Metrics.Histogram("molecule_invoke_latency_seconds", pl).Count(); got != 1 {
		t.Errorf("latency histogram count = %d, want 1", got)
	}
}

// TestGoldenChromeTrace locks the exported Chrome trace of a two-PU
// invocation against a golden file: the simulation and the exporter are
// both deterministic, so any diff means the span structure or the export
// format changed. Regenerate intentionally with:
//
//	go test ./internal/molecule -run GoldenChromeTrace -update-trace
func TestGoldenChromeTrace(t *testing.T) {
	o, _ := observedInvoke(t)
	var buf bytes.Buffer
	if err := o.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// Whatever else happens, the export must be valid JSON in the
	// trace_event envelope.
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("export has no events")
	}

	golden := filepath.Join("testdata", "trace.golden.json")
	if *updateTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden trace rewritten (%d bytes)", buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden trace; run with -update-trace first: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome trace diverges from golden (run with -update-trace if intentional):\ngot %d bytes, want %d", buf.Len(), len(want))
	}
}

// TestObserverDetachedRecordsNothing guards the zero-cost-when-disabled
// contract at the runtime level: the same workload without SetObserver
// leaves no spans and identical results.
func TestObserverDetachedRecordsNothing(t *testing.T) {
	run(t, hw.Config{DPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
		if rt.Observer() != nil {
			t.Fatal("observer attached by default")
		}
		if err := rt.Deploy(p, "helloworld"); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Invoke(p, "helloworld", DefaultInvokeOptions()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAcceleratorMissPath invokes through an install miss on each
// accelerator kind: the sandbox the deploy installed is killed, so the next
// invocation reinstalls the function cold under its own span, and a warm
// re-invoke installs nothing.
func TestAcceleratorMissPath(t *testing.T) {
	type accelRuntime interface {
		sandbox.Runtime
		Running(funcID string) (string, bool)
	}
	for _, tc := range []struct {
		kind    hw.PUKind
		install string
	}{
		{hw.FPGA, "fpga.extend_image"},
		{hw.GPU, "gpu.load_kernel"},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			run(t, hw.Config{FPGAs: 1, GPUs: 1}, DefaultOptions(), func(p *sim.Proc, rt *Runtime) {
				if err := rt.Deploy(p, "mscale", DefaultProfile(tc.kind)); err != nil {
					t.Fatal(err)
				}
				pu := rt.Machine.PUsOfKind(tc.kind)[0].ID
				sbs := rt.Node(pu).accel.(accelRuntime)
				id, ok := sbs.Running("mscale")
				if !ok {
					t.Fatal("deploy left no running sandbox")
				}
				if err := sandbox.KillOne(p, sbs, id, 9); err != nil {
					t.Fatal(err)
				}
				o := obs.New(p.Env())
				rt.SetObserver(o)

				res, err := rt.Invoke(p, "mscale", DefaultInvokeOptions())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Cold || res.Kind != tc.kind || res.PU != pu {
					t.Errorf("miss: cold=%v kind=%v pu=%d, want cold on %v PU %d", res.Cold, res.Kind, res.PU, tc.kind, pu)
				}
				root, ok := o.Tracer.Find("invoke")
				if !ok {
					t.Fatal("no invoke span recorded")
				}
				if got := time.Duration(root.End - root.Start); got != res.Total {
					t.Errorf("root span duration %v != Result.Total %v", got, res.Total)
				}
				var names []string
				for _, s := range o.Tracer.Children(root.ID) {
					names = append(names, s.Name)
				}
				if want := []string{tc.install, "handler"}; !reflect.DeepEqual(names, want) {
					t.Errorf("invoke children = %v, want %v", names, want)
				}

				before := len(o.Tracer.Spans())
				warm, err := rt.Invoke(p, "mscale", DefaultInvokeOptions())
				if err != nil {
					t.Fatal(err)
				}
				if warm.Cold {
					t.Error("re-invoke after the install was cold")
				}
				for _, s := range o.Tracer.Spans()[before:] {
					if s.Name == tc.install {
						t.Errorf("warm re-invoke opened a %s span", s.Name)
					}
				}
			})
		})
	}
}
