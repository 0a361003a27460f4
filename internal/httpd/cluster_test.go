package httpd

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/hw"
	"repro/internal/molecule"
)

func newTestClusterServer(t *testing.T, machines int) *httptest.Server {
	t.Helper()
	s, err := NewClusterServer(machines, hw.Config{DPUs: 1}, molecule.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestClusterDeployInvokeRoundTrip(t *testing.T) {
	ts := newTestClusterServer(t, 2)
	code, body := post(t, ts, "/deploy", url.Values{"fn": {"pyaes"}, "profiles": {"cpu"}})
	if code != http.StatusOK {
		t.Fatalf("deploy: %d %v", code, body)
	}
	code, body = post(t, ts, "/invoke", url.Values{"fn": {"pyaes"}})
	if code != http.StatusOK {
		t.Fatalf("invoke: %d %v", code, body)
	}
	if body["fn"] != "pyaes" {
		t.Fatalf("invoke reply fn = %v", body["fn"])
	}
	m, ok := body["machine"].(float64)
	if !ok || m < 0 || m > 1 {
		t.Fatalf("invoke reply machine = %v", body["machine"])
	}
	// Repeat invokes keep landing on the warm machine (affinity routing).
	for i := 0; i < 3; i++ {
		_, again := post(t, ts, "/invoke", url.Values{"fn": {"pyaes"}})
		if again["machine"] != body["machine"] {
			t.Fatalf("affinity broke: machine %v then %v", body["machine"], again["machine"])
		}
		if again["cold"] != false {
			t.Fatalf("repeat invoke was cold: %v", again)
		}
	}
}

func TestClusterChainAndStats(t *testing.T) {
	ts := newTestClusterServer(t, 2)
	for _, fn := range []string{"mr-splitter", "mr-mapper", "mr-reducer"} {
		if code, body := post(t, ts, "/deploy", url.Values{"fn": {fn}}); code != http.StatusOK {
			t.Fatalf("deploy %s: %d %v", fn, code, body)
		}
	}
	code, body := post(t, ts, "/chain", url.Values{"fns": {"mr-splitter,mr-mapper,mr-reducer"}})
	if code != http.StatusOK {
		t.Fatalf("chain: %d %v", code, body)
	}
	if body["total_ms"].(float64) <= 0 {
		t.Fatalf("chain total = %v", body["total_ms"])
	}
	code, body = get(t, ts, "/cluster/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, body)
	}
	machines := body["machines"].([]any)
	if len(machines) != 2 {
		t.Fatalf("stats machines = %d", len(machines))
	}
	served := 0.0
	for _, m := range machines {
		served += m.(map[string]any)["served"].(float64)
	}
	if served == 0 {
		t.Fatalf("no machine served anything: %v", body)
	}
}

func TestClusterDrainRouting(t *testing.T) {
	ts := newTestClusterServer(t, 2)
	if code, body := post(t, ts, "/deploy", url.Values{"fn": {"pyaes"}}); code != http.StatusOK {
		t.Fatalf("deploy: %d %v", code, body)
	}
	_, body := post(t, ts, "/invoke", url.Values{"fn": {"pyaes"}})
	home := int(body["machine"].(float64))
	if code, b := post(t, ts, "/cluster/drain", url.Values{"worker": {"1000"}}); code != http.StatusBadRequest {
		t.Fatalf("drain bad worker: %d %v", code, b)
	}
	if code, b := post(t, ts, "/cluster/drain", url.Values{"worker": {strconv.Itoa(home)}}); code != http.StatusOK {
		t.Fatalf("drain: %d %v", code, b)
	}
	_, body = post(t, ts, "/invoke", url.Values{"fn": {"pyaes"}})
	if got := int(body["machine"].(float64)); got == home {
		t.Fatalf("drained machine %d still serving", got)
	}
	if code, b := post(t, ts, "/cluster/undrain", url.Values{"worker": {strconv.Itoa(home)}}); code != http.StatusOK {
		t.Fatalf("undrain: %d %v", code, b)
	}
	_, body = post(t, ts, "/invoke", url.Values{"fn": {"pyaes"}})
	if got := int(body["machine"].(float64)); got != home {
		t.Fatalf("undrained home %d not serving (got %d)", home, got)
	}
}

// TestClusterInvokeOptions: a cluster /invoke honours the same form values
// as one machine's (every machine has the same PUs, so a pin names the same
// PU on each), and a deploy asking for an objective is refused, as on a
// machine with no SLO engine.
func TestClusterInvokeOptions(t *testing.T) {
	ts := newTestClusterServer(t, 2)
	code, body := post(t, ts, "/deploy", url.Values{"fn": {"helloworld"}, "profiles": {"cpu,dpu"}})
	if code != http.StatusOK {
		t.Fatalf("deploy: %d %v", code, body)
	}
	if body["deployed"] != "helloworld" {
		t.Errorf("deploy reply = %v, want deployed: helloworld", body)
	}
	code, body = post(t, ts, "/invoke", url.Values{"fn": {"helloworld"}, "body": {"1"}})
	if code != http.StatusOK || body["output"] != "hello, heterogeneous world" {
		t.Errorf("invoke body=1: %d %v", code, body)
	}
	code, body = post(t, ts, "/invoke", url.Values{"fn": {"helloworld"}, "pu": {"1"}})
	if code != http.StatusOK || body["kind"] != "DPU" || body["pu"] != 1.0 {
		t.Errorf("invoke pu=1: %d %v, want kind DPU on pu 1", code, body)
	}
	if _, ok := body["machine"]; !ok {
		t.Errorf("invoke reply names no machine: %v", body)
	}
	if code, body := post(t, ts, "/deploy", url.Values{"fn": {"matmul"}, "slo": {"5ms"}}); code != http.StatusBadRequest {
		t.Errorf("deploy slo=5ms: %d %v, want 400", code, body)
	}
}

func TestClusterUnknownFunction(t *testing.T) {
	ts := newTestClusterServer(t, 1)
	if code, body := post(t, ts, "/invoke", url.Values{"fn": {"nope"}}); code != http.StatusBadRequest {
		t.Fatalf("unknown fn: %d %v", code, body)
	}
}

// TestClusterNoLiveMachine: with every machine that could run a request
// drained, /invoke and /chain answer 503, the platform's fault. A function
// whose PU kind no machine has is the caller's fault, drained or not: 400.
func TestClusterNoLiveMachine(t *testing.T) {
	ts := newTestClusterServer(t, 1)
	for _, fn := range []string{"pyaes", "mr-splitter", "mr-mapper", "mr-reducer"} {
		if code, body := post(t, ts, "/deploy", url.Values{"fn": {fn}}); code != http.StatusOK {
			t.Fatalf("deploy %s: %d %v", fn, code, body)
		}
	}
	if code, body := post(t, ts, "/deploy", url.Values{"fn": {"mscale"}, "profiles": {"fpga"}}); code != http.StatusOK {
		t.Fatalf("deploy mscale: %d %v", code, body)
	}
	if code, body := post(t, ts, "/cluster/drain", url.Values{"worker": {"0"}}); code != http.StatusOK {
		t.Fatalf("drain: %d %v", code, body)
	}
	for _, tc := range []struct {
		path string
		form url.Values
		want int
	}{
		{"/invoke", url.Values{"fn": {"pyaes"}}, http.StatusServiceUnavailable},
		{"/chain", url.Values{"fns": {"mr-splitter,mr-mapper,mr-reducer"}}, http.StatusServiceUnavailable},
		{"/invoke", url.Values{"fn": {"mscale"}}, http.StatusBadRequest},
		{"/chain", url.Values{"fns": {"pyaes,mscale"}}, http.StatusBadRequest},
	} {
		if code, body := post(t, ts, tc.path, tc.form); code != tc.want {
			t.Errorf("%s %v on a drained cluster: %d %v, want %d", tc.path, tc.form, code, body, tc.want)
		}
	}
}
