package bench

// Cold-start sweep: flat cfork vs the package-aware zygote forest, the
// workload behind BENCH_coldstart.json.
//
// Both arms run the identical seeded Zipf stream of forced-cold invocations
// over the FunctionBench-style mix, on the identical machine (host CPU + one
// DPU), through the identical zygote cold-start path. The only difference is
// the template budget: the flat arm runs with a zero budget, so its forest
// never grows past the generic root and every cold start pays the function's
// full package closure plus private tail — by calibration exactly its
// DepImport, the flat-cfork baseline. The zygote arm gives the fitter the
// default budget, so repeated package sets earn specialized templates and
// later cold starts pay only residual imports.
//
// Reported per arm: cold-start latency (mean/p95), the fitted forest's size,
// and the end-state memory footprint as PSS — live warm instances plus all
// templates. The zygote arm must win latency at equal or lower PSS: ancestor
// pages are shared COW down the tree and into every forked instance, so
// specialization adds far less memory than it saves imports.
//
// Each arm runs on the classic sequential kernel and again through the
// sharded windowed driver; both runs must produce a byte-identical
// fingerprint (per-invocation latencies, final tree shapes, PSS sums)
// before the arm is reported.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/molecule"
	"repro/internal/sim"
)

// coldStartMix is the Zipf-weighted function population: a skewed mix of
// package profiles (shared numpy/blas stacks, image stack, singletons) so
// the fitter has real structure to find.
var coldStartMix = []string{
	"image-resize", "matmul", "pyaes", "chameleon", "linpack",
	"gzip-compression", "dd", "image-processing", "helloworld",
}

// coldStartConfig is the checked-in sweep shape.
type coldStartConfig struct {
	Invocations int
	ZipfS       float64
	Seed        uint64
	// DPUEvery pins every k-th invocation to the DPU, exercising a second
	// (runtime, PU) tree with the 6.5x startup scale.
	DPUEvery int
}

func defaultColdStartConfig() coldStartConfig {
	return coldStartConfig{Invocations: 600, ZipfS: 1.2, Seed: 42, DPUEvery: 4}
}

// ColdStartArm is one arm of the comparison, serialized into
// BENCH_coldstart.json.
type ColdStartArm struct {
	Mode          string  `json:"mode"` // "flat-cfork" | "zygote-tree"
	ColdStarts    int     `json:"cold_starts"`
	MeanStartupMS float64 `json:"mean_startup_ms"`
	P95StartupMS  float64 `json:"p95_startup_ms"`
	TreeNodes     int     `json:"tree_nodes"` // specialized templates, all (runtime, PU) trees
	FitRounds     int     `json:"fit_rounds"`
	Instances     int     `json:"live_instances"`
	InstPSSMB     float64 `json:"instance_pss_mb"`
	TemplatePSSMB float64 `json:"template_pss_mb"`
	TotalPSSMB    float64 `json:"total_pss_mb"`
	Fingerprint   string  `json:"fingerprint"`
}

// ColdStartResult is the full comparison.
type ColdStartResult struct {
	Flat   ColdStartArm `json:"flat"`
	Zygote ColdStartArm `json:"zygote"`
	// SpeedupMean is flat mean cold-start latency over zygote mean.
	SpeedupMean float64 `json:"speedup_mean"`
	// PSSRatio is zygote total PSS over flat total PSS (<= 1 means the
	// forest saves memory too).
	PSSRatio float64 `json:"pss_ratio"`
}

// coldStartRun is the raw outcome of one simulated run.
type coldStartRun struct {
	startups  metrics.Recorder
	treeNodes int
	fitRounds int
	instances int
	instPSS   float64
	tmplPSS   float64
	fp        string // FNV-1a over the stream and end state, hex
}

// runColdStartArm drives one arm's seeded invocation stream on kernel k.
func runColdStartArm(cfg coldStartConfig, zygote bool, k kernel) coldStartRun {
	var out coldStartRun
	body := func(p *sim.Proc) {
		opts := molecule.DefaultOptions()
		// Both arms run the zygote cold-start path so the package model is
		// identical; the flat arm's negative budget keeps its forest
		// root-only (flat cfork + full on-child imports).
		opts.ZygoteTree = true
		opts.ZygoteSeed = cfg.Seed
		if !zygote {
			opts.ZygoteBudgetMB = -1
		}
		rt := newMolecule(p, hw.Config{DPUs: 1}, opts)
		var dpu hw.PUID = -1
		for _, pu := range rt.Machine.PUs() {
			if pu.Kind == hw.DPU {
				dpu = pu.ID
				break
			}
		}
		for _, fn := range coldStartMix {
			if err := rt.Deploy(p, fn,
				molecule.DefaultProfile(hw.CPU), molecule.DefaultProfile(hw.DPU)); err != nil {
				panic(err)
			}
		}

		// Zipf CDF over the mix, most popular first.
		cdf := make([]float64, len(coldStartMix))
		var total float64
		for i := range coldStartMix {
			total += 1 / math.Pow(float64(i+1), cfg.ZipfS)
			cdf[i] = total
		}
		fp := sim.FNVOffset
		rng := cfg.Seed
		for i := 0; i < cfg.Invocations; i++ {
			rng = sim.SplitMix64(rng)
			u := float64(rng>>11) / (1 << 53) * total
			fn := coldStartMix[len(coldStartMix)-1]
			for j, c := range cdf {
				if u <= c {
					fn = coldStartMix[j]
					break
				}
			}
			pin := hw.PUID(-1)
			if cfg.DPUEvery > 0 && i%cfg.DPUEvery == cfg.DPUEvery-1 && dpu >= 0 {
				pin = dpu
			}
			res, err := rt.Invoke(p, fn, molecule.InvokeOptions{PU: pin, ForceCold: true})
			if err != nil {
				panic(fmt.Sprintf("coldstart %s: %v", fn, err))
			}
			out.startups.Add(res.Startup)
			fp = sim.FNVBytes(fp, fn)
			fp = fnvU64(fp, uint64(res.PU))
			fp = fnvU64(fp, uint64(res.Startup))
		}

		// End-state accounting: live instances + templates, per PU, plus
		// the fitted tree shapes — all folded into the fingerprint.
		for _, pu := range rt.Machine.PUs() {
			cr := rt.ContainerRuntimeOn(pu.ID)
			if cr == nil {
				continue
			}
			inst, ipss, tpss := cr.MemoryStats()
			out.instances += inst
			out.instPSS += ipss
			out.tmplPSS += tpss
			for _, kind := range []lang.Kind{lang.Python, lang.Node} {
				if tr := cr.Forest(kind); tr != nil {
					out.treeNodes += tr.LiveNodes()
					out.fitRounds += tr.Rounds()
					fp = sim.FNVBytes(fp, tr.ShapeString())
				}
			}
			fp = fnvU64(fp, uint64(inst))
			fp = sim.FNVBytes(fp, fmt.Sprintf("%.3f/%.3f", ipss, tpss))
		}
		out.fp = fmt.Sprintf("%016x", fp)
	}

	drive(k, body)
	return out
}

// ColdStartArmSweep runs one arm on the classic kernel, reported, then on
// the windowed driver, and fails unless both runs fingerprint identically.
func ColdStartArmSweep(cfg coldStartConfig, zygote bool) (ColdStartArm, error) {
	mode := "flat-cfork"
	if zygote {
		mode = "zygote-tree"
	}
	run := runColdStartArm(cfg, zygote, classic)
	if w := runColdStartArm(cfg, zygote, windowed); w.fp != run.fp {
		return ColdStartArm{}, fmt.Errorf("coldstart %s: windowed driver diverged:\n  got  %s\n  want %s (classic kernel)", mode, w.fp, run.fp)
	}

	const mb = 1.0 / (1 << 20)
	return ColdStartArm{
		Mode:          mode,
		ColdStarts:    run.startups.Count(),
		MeanStartupMS: run.startups.Avg().Seconds() * 1000,
		P95StartupMS:  run.startups.Percentile(95).Seconds() * 1000,
		TreeNodes:     run.treeNodes,
		FitRounds:     run.fitRounds,
		Instances:     run.instances,
		InstPSSMB:     run.instPSS * mb,
		TemplatePSSMB: run.tmplPSS * mb,
		TotalPSSMB:    (run.instPSS + run.tmplPSS) * mb,
		Fingerprint:   run.fp,
	}, nil
}

// ColdStartSweep runs both arms, each checked on both kernels.
func ColdStartSweep(invocations int) (ColdStartResult, error) {
	cfg := defaultColdStartConfig()
	if invocations > 0 {
		cfg.Invocations = invocations
	}
	flat, err := ColdStartArmSweep(cfg, false)
	if err != nil {
		return ColdStartResult{}, err
	}
	zyg, err := ColdStartArmSweep(cfg, true)
	if err != nil {
		return ColdStartResult{}, err
	}
	res := ColdStartResult{Flat: flat, Zygote: zyg}
	if zyg.MeanStartupMS > 0 {
		res.SpeedupMean = flat.MeanStartupMS / zyg.MeanStartupMS
	}
	if flat.TotalPSSMB > 0 {
		res.PSSRatio = zyg.TotalPSSMB / flat.TotalPSSMB
	}
	return res, nil
}

// ColdStartTable renders the comparison as a report table.
func ColdStartTable(res ColdStartResult) *metrics.Table {
	t := &metrics.Table{
		Title: "Cold start — flat cfork vs zygote forest (Zipf mix)",
		Note: fmt.Sprintf("same seeded stream both arms; fingerprint-checked classic vs windowed kernel; speedup %.2fx at %.2fx the memory",
			res.SpeedupMean, res.PSSRatio),
		Header: []string{"mode", "colds", "mean ms", "p95 ms", "nodes", "fits", "inst", "inst PSS MB", "tmpl PSS MB", "total PSS MB"},
	}
	for _, a := range []ColdStartArm{res.Flat, res.Zygote} {
		t.AddRow(
			a.Mode,
			fmt.Sprintf("%d", a.ColdStarts),
			fmt.Sprintf("%.2f", a.MeanStartupMS),
			fmt.Sprintf("%.2f", a.P95StartupMS),
			fmt.Sprintf("%d", a.TreeNodes),
			fmt.Sprintf("%d", a.FitRounds),
			fmt.Sprintf("%d", a.Instances),
			fmt.Sprintf("%.1f", a.InstPSSMB),
			fmt.Sprintf("%.1f", a.TemplatePSSMB),
			fmt.Sprintf("%.1f", a.TotalPSSMB),
		)
	}
	return t
}

// fnvU64 folds v's eight bytes, low first, into the FNV-1a hash h.
func fnvU64(h, v uint64) uint64 { return sim.FNVBytes(h, binary.LittleEndian.AppendUint64(nil, v)) }
