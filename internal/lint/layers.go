package lint

// Layer classifies one package under internal/ for the moleculelint suite.
// The table below is the single checked-in source of truth: the layering
// analyzer enforces the Level ordering and Deny lists, and the simtime,
// detrand, and maporder analyzers scope themselves by the Sim and Report
// flags. TestTableCoversInternalPackages asserts every package directory
// under internal/ has an entry, so a new package cannot dodge the rules by
// omission — it must be classified here first.
type Layer struct {
	// Level is the package's height in the import DAG. A package may import
	// only internal packages at a strictly lower level, which makes cycles
	// and layer inversions structurally impossible.
	Level int

	// Sim marks simulation-facing packages: everything that runs under the
	// virtual clock and feeds the golden reports and seeded chaos soaks.
	// simtime (no wall-clock calls) and detrand (no unseeded randomness)
	// apply to these packages.
	Sim bool

	// Report marks packages whose map iteration order can leak into
	// report, trace, metric, or placement output. maporder applies here.
	Report bool

	// Deny lists imports (by table key) that are forbidden even though the
	// Level ordering alone would allow them. The base layers deny faults,
	// obs, molecule, and bench: fault hooks and metric sinks reach them
	// only through consumer-side interfaces (hw.FaultInjector,
	// xpu.MetricSink, ...), never by direct import, so the simulation core
	// stays byte-identical when those subsystems are detached.
	Deny []string
}

// baseDeny is the shared deny list of the six base layers.
var baseDeny = []string{"faults", "obs", "molecule", "bench"}

// Table assigns every package under internal/ its layer. Keys are package
// paths relative to repro/internal/.
var Table = map[string]Layer{
	// Level 0: leaves. The simulation kernel, pure data, and self-contained
	// utilities. These import nothing from internal/.
	"sim":    {Level: 0, Sim: true, Report: true, Deny: baseDeny},
	"mem":    {Level: 0, Sim: true, Deny: baseDeny},
	"params": {Level: 0, Sim: true},
	"metrics": {
		Level: 0, Report: true,
	},
	"lint":          {Level: 0},
	"lint/linttest": {Level: 0},

	// Level 1: directly on the kernel.
	"hw":           {Level: 1, Sim: true, Deny: baseDeny},
	"obs":          {Level: 1, Report: true},
	"sim/simbench": {Level: 1, Sim: true},

	// Level 2: single-PU operating pieces, the fault plan, and the post-hoc
	// span analyzer (imports obs + metrics; produces report tables).
	"localos":    {Level: 2, Sim: true, Deny: baseDeny},
	"storage":    {Level: 2, Sim: true},
	"faults":     {Level: 2, Sim: true},
	"obs/attrib": {Level: 2, Report: true},

	// Level 3: the distributed shim and language runtimes.
	"xpu":  {Level: 3, Sim: true, Deny: baseDeny},
	"lang": {Level: 3, Sim: true},

	// Level 4: sandboxes and workload definitions.
	"sandbox":   {Level: 4, Sim: true, Deny: baseDeny},
	"workloads": {Level: 4, Sim: true, Report: true},

	// Level 5: the serverless runtime and its peers.
	"molecule": {Level: 5, Sim: true, Report: true},
	"baseline": {Level: 5, Sim: true},
	"ocicli":   {Level: 5, Sim: true},

	// Level 6: drivers over the runtime.
	"loadgen": {Level: 6, Sim: true},

	// Level 7: the cluster control plane. It sits above loadgen because the
	// cluster soak drives the boss with the standard traffic model.
	"cluster": {Level: 7, Sim: true, Report: true},

	// Level 8: the experiment harness. Every number it reports is a
	// virtual-time or count result, so it is held to the same no-wall-clock,
	// seeded-randomness rules as the simulation it drives.
	"bench": {Level: 8, Sim: true, Report: true},

	// Level 9: the HTTP front end. It serves real requests and may read the
	// wall clock, so Sim is off — but its own map iteration still must not
	// reorder its output.
	"httpd": {Level: 9, Report: true},
}
