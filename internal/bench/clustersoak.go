package bench

// Cluster soak: the scaling workload behind BENCH_cluster.json.
//
// Every sweep point drives the same seeded loadgen stream through a Boss
// fronting M simulated machines (each its own hw.Machine + Molecule runtime
// on its own kernel domain, connected by the network interconnect). The
// arrival schedule is identical at every point; what changes is how much
// hardware absorbs it. With one machine the cluster saturates — requests
// park in the boss's central queue and drain long after arrivals stop — so
// the run's virtual span stretches far past the load window. More machines
// drain the same stream closer to real time, so served requests per
// simulated second climbs: that ratio is the scaling curve.
//
// Throughput here is virtual-time throughput (requests per simulated
// second), not wall-clock: the curve measures the control plane's placement
// quality, independent of the host. Each point's fingerprint is pinned
// exactly by the BENCH_cluster.json snapshot test.

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/metrics"
)

// clusterSoakConfig is the checked-in sweep shape: hot enough that every
// point runs saturated, so throughput reflects how well the boss keeps the
// fleet's instance slots busy rather than the arrival rate.
func clusterSoakConfig(machines int) cluster.SoakConfig {
	cfg := cluster.DefaultSoakConfig(machines)
	cfg.HW = hw.Config{DPUs: 2}
	cfg.Capacity = 4
	// A wider, flatter function population than the default soak: with
	// eight homes and mild skew the rendezvous map spreads load evenly, so
	// the multi-machine points scale instead of colliding on one hot home.
	cfg.Functions = []string{
		"pyaes", "matmul", "image-resize", "chameleon",
		"gzip-compression", "linpack", "image-processing", "helloworld",
	}
	cfg.ZipfS = 1.1
	cfg.RatePerSec = 600
	cfg.Duration = 4 * time.Second
	return cfg
}

// ClusterSoakResult is one sweep point, serialized into BENCH_cluster.json.
type ClusterSoakResult struct {
	Machines    int     `json:"machines"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	Stolen      int     `json:"stolen"`
	QueuedPeak  int     `json:"queued_peak"`
	Events      int64   `json:"events"`
	VirtualMS   float64 `json:"virtual_ms"`
	ReqPerVSec  float64 `json:"req_per_virtual_sec"`
	Speedup     float64 `json:"speedup_vs_machines1"` // filled by ClusterSoakSweep
	Served      []int   `json:"served_per_machine"`
	Fingerprint string  `json:"fingerprint"`
}

// ClusterSoak runs the soak at one machine count.
func ClusterSoak(machines int) (ClusterSoakResult, error) {
	res, err := cluster.Soak(clusterSoakConfig(machines))
	if err != nil {
		return ClusterSoakResult{}, fmt.Errorf("machines=%d: %w", machines, err)
	}
	if res.Stats.Errors != 0 {
		return ClusterSoakResult{}, fmt.Errorf("machines=%d: soak produced %d errors", machines, res.Stats.Errors)
	}

	vsec := time.Duration(res.FinalTime).Seconds()
	out := ClusterSoakResult{
		Machines:    machines,
		Requests:    res.Stats.Requests,
		Errors:      res.Stats.Errors,
		Stolen:      res.Stolen,
		QueuedPeak:  res.QueuedPeak,
		Events:      res.Events,
		VirtualMS:   time.Duration(res.FinalTime).Seconds() * 1000,
		ReqPerVSec:  float64(res.Stats.Requests) / vsec,
		Served:      res.Served,
		Fingerprint: res.Fingerprint(),
	}
	return out, nil
}

// ClusterSoakSweep runs the soak at each machine count (the first must be
// 1, the baseline) and computes virtual-throughput speedups relative to
// the single-machine point.
func ClusterSoakSweep(machineCounts []int) ([]ClusterSoakResult, error) {
	if len(machineCounts) == 0 || machineCounts[0] != 1 {
		return nil, fmt.Errorf("sweep must start at machines=1 (the baseline), got %v", machineCounts)
	}
	out := make([]ClusterSoakResult, 0, len(machineCounts))
	for _, m := range machineCounts {
		r, err := ClusterSoak(m)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	base := out[0].ReqPerVSec
	for i := range out {
		out[i].Speedup = out[i].ReqPerVSec / base
	}
	return out, nil
}

// ClusterSoakTable renders a sweep as a report table.
func ClusterSoakTable(results []ClusterSoakResult) *metrics.Table {
	t := &metrics.Table{
		Title:  "Cluster soak — virtual req/sec vs machine count",
		Note:   "same seeded arrival stream at every point",
		Header: []string{"machines", "requests", "stolen", "qpeak", "virtual ms", "req/vsec", "speedup"},
	}
	for _, r := range results {
		t.AddRow(
			fmt.Sprintf("%d", r.Machines),
			fmt.Sprintf("%d", r.Requests),
			fmt.Sprintf("%d", r.Stolen),
			fmt.Sprintf("%d", r.QueuedPeak),
			fmt.Sprintf("%.1f", r.VirtualMS),
			fmt.Sprintf("%.1f", r.ReqPerVSec),
			fr(r.Speedup),
		)
	}
	return t
}
