package lint

// The release table declares, like the layer table in layers.go, which
// acquire APIs hand out a resource that must be paired with a release —
// data the releasepath analyzer walks the CFG against. Every refcounted or
// pooled handle in the tree appears here; TestReleaseTableCoversResourceTypes
// pins the table to the real APIs in both directions.

// apiRef names one method: the fully-qualified named type of its receiver
// (pointer stripped) and the method name.
type apiRef struct {
	Recv   string // e.g. "repro/internal/molecule.Runtime"
	Method string
}

// releaseRef is a release method plus where the resource goes in the call:
// the argument at index Arg, or the receiver itself when Arg == -1.
type releaseRef struct {
	apiRef
	Arg int
}

// ReleasePair pairs one acquire API with the set of calls that dispose of
// the resource it hands out.
//
// Result/PinArg locate the resource at the acquire site: Result >= 0 means
// the resource is that index of the call's results (discarding it is a
// leak by construction); Result == -1 means the call pins an existing
// object, the argument at index PinArg.
type ReleasePair struct {
	Class    string // human name used in diagnostics
	Acquire  apiRef
	Result   int
	PinArg   int
	Releases []releaseRef
}

// ReleaseTable is the source of truth for acquire/release pairings.
var ReleaseTable = []ReleasePair{
	{
		Class:   "molecule instance",
		Acquire: apiRef{Recv: "repro/internal/molecule.Runtime", Method: "acquire"},
		Result:  0, PinArg: -1,
		Releases: []releaseRef{
			{apiRef{Recv: "repro/internal/molecule.Runtime", Method: "release"}, 1},
			{apiRef{Recv: "repro/internal/molecule.Runtime", Method: "destroy"}, 1},
			{apiRef{Recv: "repro/internal/molecule.Runtime", Method: "releaseAll"}, 1},
		},
	},
	{
		Class:   "molecule instance set",
		Acquire: apiRef{Recv: "repro/internal/molecule.Runtime", Method: "acquireAll"},
		Result:  0, PinArg: -1,
		Releases: []releaseRef{
			{apiRef{Recv: "repro/internal/molecule.Runtime", Method: "releaseAll"}, 1},
		},
	},
	{
		Class:   "chain wiring",
		Acquire: apiRef{Recv: "repro/internal/molecule.Runtime", Method: "wireChain"},
		Result:  0, PinArg: -1,
		Releases: []releaseRef{
			{apiRef{Recv: "repro/internal/molecule.Runtime", Method: "unwireChain"}, 0},
		},
	},
	{
		Class:   "held molecule instance",
		Acquire: apiRef{Recv: "repro/internal/molecule.Runtime", Method: "AcquireHeld"},
		Result:  0, PinArg: -1,
		Releases: []releaseRef{
			{apiRef{Recv: "repro/internal/molecule.Runtime", Method: "ReleaseHeld"}, 1},
			{apiRef{Recv: "repro/internal/molecule.Runtime", Method: "release"}, 1},
			{apiRef{Recv: "repro/internal/molecule.Runtime", Method: "destroy"}, 1},
		},
	},
	{
		Class:   "forked address space",
		Acquire: apiRef{Recv: "repro/internal/mem.AddressSpace", Method: "Fork"},
		Result:  0, PinArg: -1,
		Releases: []releaseRef{
			{apiRef{Recv: "repro/internal/mem.AddressSpace", Method: "Release"}, -1},
		},
	},
	{
		Class:   "zygote pin",
		Acquire: apiRef{Recv: "repro/internal/lang.ZygoteTree", Method: "Pin"},
		Result:  -1, PinArg: 0,
		Releases: []releaseRef{
			{apiRef{Recv: "repro/internal/lang.ZygoteTree", Method: "Unpin"}, 0},
		},
	},
}
