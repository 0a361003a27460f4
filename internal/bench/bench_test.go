package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryCoversEveryFigureAndTable(t *testing.T) {
	want := []string{
		"fig2a", "fig2b", "fig8", "fig9", "fig10ab", "fig10c", "tab4",
		"fig11a", "fig11bc", "fig12", "fig13", "fig14a", "fig14b", "fig14c",
		"fig14d", "fig14e", "fig14f", "fig14g", "fig14h", "fig15", "tab1", "tab5",
		"artifact", "case-gnn", "case-util",
		"abl-transport", "abl-placement", "abl-keepalive", "abl-sync",
		"abl-shimthreads", "abl-erase", "abl-startupmode", "abl-vertical",
		"abl-autoscale", "abl-pricing", "abl-throughput", "abl-slo", "abl-contention", "abl-templates",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("unknown id resolved")
	}
}

func TestAllOrdering(t *testing.T) {
	all := All()
	if len(all) < 20 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	// Paper experiments come in evaluation order, ablations after.
	idx := map[string]int{}
	for i, e := range all {
		idx[e.ID] = i
	}
	if !(idx["fig2a"] < idx["fig8"] && idx["fig8"] < idx["fig14a"] && idx["fig14a"] < idx["tab5"]) {
		t.Error("evaluation-order sorting broken")
	}
	if idx["abl-transport"] < idx["tab5"] {
		t.Error("ablations sorted before paper experiments")
	}
}

func TestEveryExperimentHasMetadata(t *testing.T) {
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %+v missing metadata", e.ID)
		}
	}
}

// cell extracts the table cell at (row, col) by whitespace-splitting.
func lastField(row []string) string { return row[len(row)-1] }

// parseRatio parses "4.42x" into 4.42.
func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio cell %q: %v", s, err)
	}
	return v
}

func runExp(t *testing.T, id string) []*tableData {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	var out []*tableData
	for _, tab := range e.Run() {
		out = append(out, &tableData{title: tab.Title, rows: tab.Rows})
	}
	return out
}

type tableData struct {
	title string
	rows  [][]string
}

func TestFig2aTableValues(t *testing.T) {
	tabs := runExp(t, "fig2a")
	rows := tabs[0].rows
	if rows[0][1] != "1000" || rows[1][1] != "1256" || rows[2][1] != "1512" {
		t.Errorf("density rows = %v", rows)
	}
}

func TestFig2bSpeedupBand(t *testing.T) {
	for _, row := range runExp(t, "fig2b")[0].rows {
		r := parseRatio(t, lastField(row))
		if r < 2.15 || r > 2.82 {
			t.Errorf("%s speedup %.2f outside 2.15-2.82", row[0], r)
		}
	}
}

func TestFig14aImprovementBand(t *testing.T) {
	for _, row := range runExp(t, "fig14a")[0].rows {
		r := parseRatio(t, lastField(row))
		if r < 1.0 || r > 11.5 {
			t.Errorf("%s improvement %.2f outside the paper's 1.01-11.12 band", row[0], r)
		}
	}
}

func TestFig14bWarmNearParity(t *testing.T) {
	for _, row := range runExp(t, "fig14b")[0].rows {
		r := parseRatio(t, lastField(row))
		if r < 0.7 || r > 1.05 {
			t.Errorf("%s warm ratio %.2f not near parity", row[0], r)
		}
	}
}

func TestFig12ImprovementBands(t *testing.T) {
	for _, tab := range runExp(t, "fig12") {
		for _, row := range tab.rows {
			r := parseRatio(t, lastField(row))
			if r < 9 || r > 19 {
				t.Errorf("%s / %s improvement %.2f outside 9-19", tab.title, row[0], r)
			}
		}
	}
}

func TestFig13ConvergesAtOne(t *testing.T) {
	rows := runExp(t, "fig13")[0].rows
	if r := parseRatio(t, lastField(rows[0])); r != 1.0 {
		t.Errorf("1-function chain ratio %.2f, want 1.00", r)
	}
	last := parseRatio(t, lastField(rows[len(rows)-1]))
	if last < 1.8 || last > 2.2 {
		t.Errorf("5-function chain ratio %.2f, want ~1.95", last)
	}
	// Monotonically increasing benefit with chain length.
	prev := 0.0
	for _, row := range rows {
		r := parseRatio(t, lastField(row))
		if r < prev {
			t.Errorf("retention benefit not monotone: %v", rows)
		}
		prev = r
	}
}

func TestFig14fCrossover(t *testing.T) {
	rows := runExp(t, "fig14f")[0].rows
	first := parseRatio(t, lastField(rows[0]))
	if first >= 1 {
		t.Errorf("1KB ratio %.2f — CPU must win small files", first)
	}
	last := parseRatio(t, lastField(rows[len(rows)-1]))
	if last < 7.4 || last > 9.2 {
		t.Errorf("112MB ratio %.2f, want ~8.3", last)
	}
}

func TestFig14gBand(t *testing.T) {
	rows := runExp(t, "fig14g")[0].rows
	first := parseRatio(t, lastField(rows[0]))
	last := parseRatio(t, lastField(rows[len(rows)-1]))
	if first < 4.0 || first > 5.6 {
		t.Errorf("6K ratio %.2f, want ~4.7", first)
	}
	if last < 30 || last > 38 {
		t.Errorf("6M ratio %.2f, want ~34.6", last)
	}
}

func TestAblationTablesNonEmpty(t *testing.T) {
	for _, id := range []string{"abl-transport", "abl-placement", "abl-sync", "abl-shimthreads", "abl-erase"} {
		tabs := runExp(t, id)
		if len(tabs) == 0 || len(tabs[0].rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestAblKeepaliveMonotone(t *testing.T) {
	rows := runExp(t, "abl-keepalive")[0].rows
	prev := 101.0
	for _, row := range rows {
		pct, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		if err != nil {
			t.Fatalf("bad cold-rate cell %q", row[1])
		}
		if pct > prev+0.01 {
			t.Errorf("cold-start rate not non-increasing with cache size: %v", rows)
		}
		prev = pct
	}
}

func TestRunAllRendersEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	var buf bytes.Buffer
	Report(&buf, 0, false)
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, e.ID) {
			t.Errorf("report missing %s", e.ID)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Error("report contains NaN/Inf")
	}
}

func TestTab1AllChecksPass(t *testing.T) {
	for _, row := range runExp(t, "tab1")[0].rows {
		if lastField(row) != "PASS" {
			t.Errorf("Table 1 claim %q: %v", row[0], row)
		}
	}
}

func TestAblVerticalRejectionsDecrease(t *testing.T) {
	rows := runExp(t, "abl-vertical")[0].rows
	prev := 1 << 30
	for _, row := range rows {
		rejected, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad rejected cell %q", row[2])
		}
		if rejected > prev {
			t.Errorf("rejections increased with more DPUs: %v", rows)
		}
		prev = rejected
	}
}

func TestAblStartupModeOrdering(t *testing.T) {
	rows := runExp(t, "abl-startupmode")[0].rows
	// plain > snapshot > cfork on steady cold start.
	get := func(i int) string { return rows[i][2] }
	if !(strings.Contains(get(0), "ms") && strings.Contains(get(1), "ms") && strings.Contains(get(2), "ms")) {
		t.Fatalf("unexpected cells: %v", rows)
	}
	ratios := make([]float64, len(rows))
	for i, row := range rows {
		ratios[i] = parseRatio(t, lastField(row))
	}
	if !(ratios[0] == 1.0 && ratios[1] > ratios[0] && ratios[2] > ratios[1]) {
		t.Errorf("startup-mode speedups not ordered: %v", ratios)
	}
}

// TestFig9RatioBands asserts the §6.3 headline ratios from the rendered
// table.
func TestFig9RatioBands(t *testing.T) {
	tabs := runExp(t, "fig9")
	// Startup table rows: Lambda, OpenWhisk, homo, Molecule; col 2 = ratio
	// vs Molecule.
	start := tabs[0].rows
	lambda := parseRatio(t, start[0][2])
	ow := parseRatio(t, start[1][2])
	if lambda < 36 || lambda > 48 || ow < 36 || ow > 48 {
		t.Errorf("startup ratios %.1f / %.1f outside the 37-46x band", lambda, ow)
	}
	comm := tabs[1].rows
	owComm := parseRatio(t, comm[1][2])
	if owComm < 60 || owComm > 120 {
		t.Errorf("OpenWhisk comm ratio %.1f outside the 68-300x class", owComm)
	}
}

// TestFig10cStaircaseCells asserts the FPGA startup staircase from the
// rendered table.
func TestFig10cStaircaseCells(t *testing.T) {
	rows := runExp(t, "fig10c")[0].rows
	want := map[string]string{
		"Baseline":     "20.30s",
		"No-Erase":     "3.80s",
		"Warm-image":   "1.90s",
		"Warm-sandbox": "53.00ms",
	}
	for _, row := range rows {
		if w, ok := want[row[0]]; ok && row[1] != w {
			t.Errorf("%s = %s, want %s", row[0], row[1], w)
		}
	}
}

func TestAblContentionScalesLinearly(t *testing.T) {
	rows := runExp(t, "abl-contention")[0].rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Per-request averages stay flat: the link serializes, it does not
	// degrade.
	if rows[0][2] == "" || rows[2][2] == "" {
		t.Error("missing per-request cells")
	}
}
