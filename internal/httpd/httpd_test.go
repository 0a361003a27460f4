package httpd

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/molecule"
	"repro/internal/obs"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := NewServer(hw.Config{DPUs: 1, FPGAs: 1}, molecule.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path string, form url.Values) (int, map[string]any) {
	t.Helper()
	resp, err := http.PostForm(ts.URL+path, form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestDeployInvokeRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	code, body := post(t, ts, "/deploy", url.Values{"fn": {"helloworld"}})
	if code != http.StatusOK {
		t.Fatalf("deploy: %d %v", code, body)
	}
	code, body = post(t, ts, "/invoke", url.Values{"fn": {"helloworld"}, "body": {"1"}})
	if code != http.StatusOK {
		t.Fatalf("invoke: %d %v", code, body)
	}
	if body["cold"] != true {
		t.Error("first invoke not cold")
	}
	if body["output"] != "hello, heterogeneous world" {
		t.Errorf("output = %v", body["output"])
	}
	if body["total_ms"].(float64) <= 0 {
		t.Error("no virtual latency reported")
	}
	// Second invoke is warm.
	_, body = post(t, ts, "/invoke", url.Values{"fn": {"helloworld"}})
	if body["cold"] != false {
		t.Error("second invoke not warm")
	}
}

func TestInvokeOnFPGA(t *testing.T) {
	ts := newTestServer(t)
	if code, body := post(t, ts, "/deploy", url.Values{
		"fn": {"gzip-compression"}, "profiles": {"cpu,fpga"},
	}); code != http.StatusOK {
		t.Fatalf("deploy: %d %v", code, body)
	}
	_, body := post(t, ts, "/invoke", url.Values{
		"fn": {"gzip-compression"}, "bytes": {"52428800"},
	})
	if body["kind"] != "FPGA" {
		t.Errorf("kind = %v, want FPGA", body["kind"])
	}
}

func TestChainEndpoint(t *testing.T) {
	ts := newTestServer(t)
	for _, fn := range []string{"mr-splitter", "mr-mapper", "mr-reducer"} {
		post(t, ts, "/deploy", url.Values{"fn": {fn}})
	}
	code, body := post(t, ts, "/chain", url.Values{"fns": {"mr-splitter,mr-mapper,mr-reducer"}})
	if code != http.StatusOK {
		t.Fatalf("chain: %d %v", code, body)
	}
	if int(body["cold_starts"].(float64)) != 3 {
		t.Errorf("cold starts = %v", body["cold_starts"])
	}
	edges := body["edge_ms"].([]any)
	if len(edges) != 2 {
		t.Errorf("edges = %v", edges)
	}
}

// TestErrorPaths: every malformed or unservable request is the caller's
// fault (400) on one machine and on a cluster alike. matmul is deployed, so
// its bad pins fail at the pin, not at the lookup.
func TestErrorPaths(t *testing.T) {
	for _, backend := range []struct {
		name string
		ts   *httptest.Server
	}{
		{"machine", newTestServer(t)},
		{"cluster", newTestClusterServer(t, 2)},
	} {
		if code, body := post(t, backend.ts, "/deploy", url.Values{"fn": {"matmul"}}); code != http.StatusOK {
			t.Fatalf("%s: deploy matmul: %d %v", backend.name, code, body)
		}
		for _, tc := range []struct {
			path string
			form url.Values
		}{
			{"/deploy", url.Values{}},
			{"/deploy", url.Values{"fn": {"no-such"}}},
			{"/deploy", url.Values{"fn": {"matmul"}, "profiles": {"quantum"}}},
			{"/invoke", url.Values{}},
			{"/invoke", url.Values{"fn": {"undeployed"}}},
			{"/invoke", url.Values{"fn": {"matmul"}, "pu": {"abc"}}},
			{"/invoke", url.Values{"fn": {"matmul"}, "pu": {"7"}}},
			{"/chain", url.Values{}},
		} {
			if code, _ := post(t, backend.ts, tc.path, tc.form); code != http.StatusBadRequest {
				t.Errorf("%s: %s %v returned %d, want 400", backend.name, tc.path, tc.form, code)
			}
		}
	}
}

func TestStatsAndFunctions(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts, "/deploy", url.Values{"fn": {"matmul"}})
	post(t, ts, "/invoke", url.Values{"fn": {"matmul"}})
	code, body := get(t, ts, "/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if int(body["invocations"].(float64)) != 1 {
		t.Errorf("invocations = %v", body["invocations"])
	}
	if len(body["pus"].([]any)) != 3 {
		t.Errorf("pus = %v", body["pus"])
	}
	if !strings.Contains(body["virtual_time"].(string), "s") {
		t.Errorf("virtual_time = %v", body["virtual_time"])
	}
	_, fns := get(t, ts, "/functions")
	if len(fns["functions"].([]any)) < 20 {
		t.Error("registry listing too small")
	}
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	s, err := NewServer(hw.Config{DPUs: 1, FPGAs: 1}, molecule.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableObservability()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post(t, ts, "/deploy", url.Values{"fn": {"helloworld"}})
	post(t, ts, "/invoke", url.Values{"fn": {"helloworld"}}) // cold
	post(t, ts, "/invoke", url.Values{"fn": {"helloworld"}}) // warm

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	out := string(raw)
	// Exposition-format checks: HELP/TYPE lines, counter series with label
	// sets, and histogram buckets with the le label.
	for _, want := range []string{
		"# HELP molecule_cold_starts_total",
		"# TYPE molecule_cold_starts_total counter",
		`molecule_cold_starts_total{fn="helloworld",pu="0"} 1`,
		`molecule_warm_hits_total{fn="helloworld",pu="0"} 1`,
		"# TYPE molecule_invoke_latency_seconds histogram",
		`molecule_invoke_latency_seconds_bucket{pu="0",le="+Inf"} 2`,
		`molecule_invoke_latency_seconds_count{pu="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, " ") {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// /trace serves the gateway-rooted span tree as valid Chrome trace JSON.
	tresp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/trace: %d", tresp.StatusCode)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&file); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	names := make(map[string]int)
	for _, ev := range file.TraceEvents {
		names[ev.Name]++
	}
	for _, want := range []string{"gateway.request", "invoke", "sandbox.acquire", "handler"} {
		if names[want] == 0 {
			t.Errorf("/trace missing %q span (got %v)", want, names)
		}
	}
}

func TestMetricsDisabledBy404(t *testing.T) {
	ts := newTestServer(t) // no EnableObservability
	for _, path := range []string{"/metrics", "/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without observability: %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestSLOEndpoint(t *testing.T) {
	s, err := NewServer(hw.Config{DPUs: 1, FPGAs: 1}, molecule.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableSLO(obs.SLOConfig{Objective: 50 * time.Millisecond, Target: 0.99})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Deploy with a per-function objective override, then record two invokes.
	code, body := post(t, ts, "/deploy", url.Values{
		"fn": {"helloworld"}, "slo": {"5ms"}, "slo_target": {"0.9"},
	})
	if code != http.StatusOK {
		t.Fatalf("deploy: %d %v", code, body)
	}
	post(t, ts, "/invoke", url.Values{"fn": {"helloworld"}}) // cold: blows the 5ms objective
	post(t, ts, "/invoke", url.Values{"fn": {"helloworld"}}) // warm

	code, slo := get(t, ts, "/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo: %d %v", code, slo)
	}
	def := slo["default"].(map[string]any)
	if def["objective_ms"].(float64) != 50 || def["target"].(float64) != 0.99 {
		t.Errorf("default objective = %v", def)
	}
	fns := slo["functions"].([]any)
	if len(fns) != 1 {
		t.Fatalf("functions = %v, want 1 entry", fns)
	}
	st := fns[0].(map[string]any)
	if st["fn"] != "helloworld" || st["objective_ms"].(float64) != 5 || st["target"].(float64) != 0.9 {
		t.Errorf("scored objective = %v", st)
	}
	if st["requests"].(float64) != 2 {
		t.Errorf("requests = %v, want 2", st["requests"])
	}
	if st["p99_ms"].(float64) <= 0 || st["max_ms"].(float64) <= 0 {
		t.Errorf("quantiles missing: %v", st)
	}

	// /metrics mirrors the scored state as slo_* gauges.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE slo_requests gauge",
		`slo_requests{fn="helloworld"} 2`,
		`slo_attainment_ratio{fn="helloworld"}`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Malformed SLO parameters are rejected before deploying.
	for _, form := range []url.Values{
		{"fn": {"matmul"}, "slo": {"fast"}},
		{"fn": {"matmul"}, "slo": {"5ms"}, "slo_target": {"2"}},
		{"fn": {"matmul"}, "slo": {"5ms"}, "slo_target": {"0"}},
	} {
		if code, _ := post(t, ts, "/deploy", form); code != http.StatusBadRequest {
			t.Errorf("deploy %v returned %d, want 400", form, code)
		}
	}
}

func TestSLODisabled(t *testing.T) {
	ts := newTestServer(t) // no EnableSLO
	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/slo without engine: %d, want 404", resp.StatusCode)
	}
	// A deploy asking for an objective with no engine attached is an error,
	// not a silent drop.
	if code, _ := post(t, ts, "/deploy", url.Values{"fn": {"matmul"}, "slo": {"5ms"}}); code != http.StatusBadRequest {
		t.Errorf("deploy with slo on disabled engine: %d, want 400", code)
	}
}

func TestConcurrentHTTPRequestsSerialize(t *testing.T) {
	ts := newTestServer(t)
	post(t, ts, "/deploy", url.Values{"fn": {"matmul"}})
	done := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		go func() {
			code, _ := post(t, ts, "/invoke", url.Values{"fn": {"matmul"}})
			done <- code == http.StatusOK
		}()
	}
	for i := 0; i < 8; i++ {
		if !<-done {
			t.Error("concurrent invoke failed")
		}
	}
}

func TestExperimentEndpoints(t *testing.T) {
	ts := newTestServer(t)
	code, body := get(t, ts, "/experiments")
	if code != http.StatusOK {
		t.Fatalf("experiments: %d", code)
	}
	if len(body["experiments"].([]any)) < 20 {
		t.Error("experiment listing too small")
	}
	resp, err := http.Post(ts.URL+"/experiments/fig11a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run experiment: %d %v", resp.StatusCode, out)
	}
	tables := out["tables"].([]any)
	rows := tables[0].(map[string]any)["rows"].([]any)
	if len(rows) != 4 {
		t.Errorf("fig11a rows = %d, want 4", len(rows))
	}
	last := rows[3].([]any)
	if last[1] != "8.40ms" {
		t.Errorf("cpuset-opt cell = %v, want 8.40ms", last[1])
	}
	resp2, _ := http.Post(ts.URL+"/experiments/nope", "", nil)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: %d, want 404", resp2.StatusCode)
	}
}
