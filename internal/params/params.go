// Package params centralizes every calibration constant used by the
// simulated substrate, with the paper measurement each value is sourced from.
//
// The reproduction does not try to match the paper's absolute numbers exactly
// (our substrate is a simulator, not the authors' testbed); these constants
// anchor the model so the *shape* of every result — who wins, by what factor,
// where crossovers fall — matches the paper. Each constant names the figure
// or section of "Serverless Computing on Heterogeneous Computers"
// (ASPLOS'22) it was calibrated against.
package params

import "time"

// ---------------------------------------------------------------------------
// Local OS syscall / IPC costs (§5, Fig 7, Fig 8).
// ---------------------------------------------------------------------------

const (
	// FIFOOpCPU is the one-way latency of a local Linux FIFO operation on the
	// host CPU. Fig 8 shows Linux (CPU) around 8us for small messages.
	FIFOOpCPU = 8 * time.Microsecond

	// FIFOOpDPU is the same on the Bluefield-1 DPU's slow ARM cores. Fig 8
	// shows Linux (DPU) around 30us; nIPC-Poll (25us) beats it by bypassing
	// the slow device kernel.
	FIFOOpDPU = 30 * time.Microsecond

	// XPUCallIPCRoundTripCPU is one FIFO round trip between a process and the
	// XPU-Shim on the CPU. §5: "the costs in host CPU is about 20us" for the
	// naive two-round-trip XPUcall, i.e. ~10us per round trip.
	XPUCallIPCRoundTripCPU = 10 * time.Microsecond

	// XPUCallIPCRoundTripDPU is one FIFO round trip on the BF-1 DPU. §5: the
	// naive two-round-trip XPUcall costs ~100us on Bluefield-1, i.e. ~50us
	// per round trip.
	XPUCallIPCRoundTripDPU = 50 * time.Microsecond

	// XPUCallMPSCEnqueue is the cost of posting a request into the shared
	// MPSC queue polled by XPU-Shim (Fig 7-b/c): a couple of cache-line
	// writes plus the poll pickup delay.
	XPUCallMPSCEnqueue = 2 * time.Microsecond

	// XPUCallPollResponse is the cost of the caller polling shared memory
	// for the response (Fig 7-c), replacing the response IPC entirely.
	XPUCallPollResponse = 1 * time.Microsecond

	// XPUCallShimHandling is XPU-Shim's internal request handling time
	// (capability check, object lookup) per XPUcall.
	XPUCallShimHandling = 3 * time.Microsecond
)

// ---------------------------------------------------------------------------
// Interconnect (§3.3, §5, Fig 8, Fig 13).
// ---------------------------------------------------------------------------

const (
	// RDMABaseLatency is the base one-way latency of an RDMA message between
	// CPU and DPU over PCIe. Calibrated so nIPC-Poll lands near 25us for
	// small messages (Fig 8) once queue and polling costs are added.
	RDMABaseLatency = 18 * time.Microsecond

	// RDMABandwidth is the CPU<->DPU RDMA payload bandwidth (100Gbps NIC,
	// PCIe-limited in practice).
	RDMABandwidth = 10e9 // bytes/sec

	// DMABaseLatency is the base latency of a raw DMA transfer between host
	// and FPGA (descriptor setup + doorbell + completion).
	DMABaseLatency = 10 * time.Microsecond

	// FPGACommandLatency is issuing an execute command to the wrapper and
	// receiving its completion interrupt.
	FPGACommandLatency = 15 * time.Microsecond

	// DMABandwidth is host<->FPGA DMA bandwidth (PCIe gen3 x16 practical).
	DMABandwidth = 8e9 // bytes/sec

	// NetworkBaseLatency is the one-way latency of an HTTP request between
	// co-located processes through the kernel network stack plus web
	// framework (Express/Flask) handling. Fig 12: baseline DAG edges are
	// ~2.5-3.5ms on the CPU.
	NetworkBaseLatency = 2800 * time.Microsecond

	// NetworkBandwidth is the loopback/host network bandwidth.
	NetworkBandwidth = 3e9 // bytes/sec

	// NetworkDPUPenalty multiplies the network software-stack cost on the
	// slow BF-1 cores (Fig 12-b: DPU-DPU baseline hops are ~2x CPU ones).
	NetworkDPUPenalty = 2.2

	// ShmHandoffLatency is the cost of passing a message through shared
	// memory between co-located processes (pointer swap + cache transfer).
	ShmHandoffLatency = 2 * time.Microsecond
)

// ---------------------------------------------------------------------------
// Processing units (§6 experimental setup).
// ---------------------------------------------------------------------------

const (
	// CPUSpeedFactor is the normalization anchor: execution cost models are
	// expressed as CPU time, so the CPU factor is 1.
	CPUSpeedFactor = 1.0

	// BF1SpeedFactor scales compute latency on Bluefield-1 (16x 800MHz ARM
	// vs 2.1GHz Xeon). Fig 14c labels are 4-7x the CPU ones; 6.3 matches
	// the per-function ratios closely.
	BF1SpeedFactor = 6.3

	// BF2SpeedFactor scales compute on Bluefield-2 (2.75GHz cores). Fig 14d:
	// 3-4x better than BF-1, near CPU performance.
	BF2SpeedFactor = 1.75

	// HostCPUCores and HostMemory describe the Xeon 8160 host
	// (96 cores, evaluation server).
	HostCPUCores = 96
	HostMemory   = 384 << 30 // bytes
	DPUCores     = 16
	DPUMemory    = 16 << 30
	HostFreqMHz  = 2100
	BF1FreqMHz   = 800
	BF2FreqMHz   = 2750
)

// ---------------------------------------------------------------------------
// FPGA device (§3.5, §6.4 Fig 10c, Table 4).
// ---------------------------------------------------------------------------

const (
	// FPGAEraseTime: Fig 10c baseline spends most of >20s erasing. Erase +
	// load + sandbox prep = 16.5 + 1.9 + 1.9 = 20.3s.
	FPGAEraseTime = 16500 * time.Millisecond

	// FPGAImageLoadTime is flashing the target image onto the fabric.
	// Fig 10c "No-Erase" = load + sandbox prep = 3.8s.
	FPGAImageLoadTime = 1900 * time.Millisecond

	// FPGASandboxPrep is preparing the software sandbox that fronts a cached
	// FPGA instance. Fig 10c "Warm-image" (image already flushed) = 1.9s.
	FPGASandboxPrep = 1900 * time.Millisecond

	// FPGAWarmSandboxInvoke: with a warmed sandbox, invoking the function
	// (argument transfer + command + result) costs ~53ms (Fig 10c best case,
	// vector multiplication).
	FPGAWarmSandboxInvoke = 53 * time.Millisecond
)

// AWS F1 UltraScale+ totals (Table 4).
const (
	F1TotalLUTs  = 1181768
	F1TotalREGs  = 2364480
	F1TotalBRAMs = 2160
	F1TotalDSPs  = 6840
)

// Per-instance wrapper resource costs, calibrated so a 12-instance vectorized
// image reproduces Table 4 (10.1% LUT, 8.3% REG, 22.5% BRAM, 11.5% DSP) with
// a ~5% LUT base overhead for the wrapper shell itself (§6.4).
const (
	FPGAWrapperBaseLUTs  = 59088 // ~5% of F1 total
	FPGAWrapperBaseREGs  = 98249
	FPGAWrapperBaseBRAMs = 126
	FPGAWrapperBaseDSPs  = 67
	FPGAPerInstLUTs      = 5036 // (119517-59088)/12
	FPGAPerInstREGs      = 8229
	FPGAPerInstBRAMs     = 30
	FPGAPerInstDSPs      = 60
	FPGADRAMBanks        = 4 // DDR banks per F1 FPGA usable by the wrapper
)

// ---------------------------------------------------------------------------
// Container / language runtime startup (§4.2, §6.4, Fig 10a/b, Fig 11a).
// ---------------------------------------------------------------------------

// The cfork constants decompose the Fig 11a breakdown exactly:
//
//	Baseline    = container create + spawn + runtime init + func load
//	            = 17.2 + 2.55 + 62.8 + 3.0                     = 85.55 ms
//	Naive cfork = merge + fork + ns join + cgroup(sem) + expand(x2)
//	              + load + COW faults + connect + container create
//	            = 0.3 + 1.2 + 1.3 + 22.55 + 1.0 + 3.0 + 0.4 + 0.3 + 17.2
//	            = 47.25 ms
//	+FuncContainer (pre-created container, drop create)        = 30.05 ms
//	+Cpuset opt    (cgroup semaphore → mutex, 22.55 → 0.9)     =  8.40 ms
const (
	// ContainerCreateTime is the cost of creating a runc-style container
	// (rootfs mount, namespaces, cgroup). Removed from the cfork path by
	// the pre-initialized FuncContainer optimization.
	ContainerCreateTime = 17200 * time.Microsecond

	// PythonInitTime / NodeInitTime are cold language-runtime initialization
	// costs (interpreter boot + serverless wrapper import) on the CPU.
	PythonInitTime = 62800 * time.Microsecond
	NodeInitTime   = 180 * time.Millisecond

	// ProcessSpawnTime is the OS fork+exec of a fresh program.
	ProcessSpawnTime = 2550 * time.Microsecond

	// FuncLoadTime is loading the function's code and deps into a prepared
	// runtime (generic template → function specialization).
	FuncLoadTime = 3000 * time.Microsecond

	// CforkOSForkTime is the OS-level COW fork of the merged single-thread
	// template process.
	CforkOSForkTime = 1200 * time.Microsecond

	// CforkThreadMergeTime / CforkThreadExpandTime: forkable runtime merging
	// runtime threads pre-fork and re-expanding them post-fork (§4.2),
	// per auxiliary thread.
	CforkThreadMergeTime  = 150 * time.Microsecond
	CforkThreadExpandTime = 250 * time.Microsecond

	// CforkNamespaceJoinTime is re-joining the function container's
	// namespaces after fork.
	CforkNamespaceJoinTime = 1300 * time.Microsecond

	// CgroupCpusetSemaphoreTime is the cgroup cpuset reassignment cost with
	// the stock kernel's semaphore-protected cpuset (Fig 11a "FuncContainer"
	// stage: 30.05ms total), most of which the mutex patch removes.
	CgroupCpusetSemaphoreTime = 22550 * time.Microsecond

	// CgroupCpusetMutexTime is the same operation with the paper's
	// semaphore→mutex kernel patch (Fig 11a "Cpuset opt": 8.40ms total).
	CgroupCpusetMutexTime = 900 * time.Microsecond

	// CforkConnectTime is the forked child establishing its nIPC connection
	// back to Molecule.
	CforkConnectTime = 300 * time.Microsecond

	// CforkCOWFaultPenalty is the per-request copy-on-write page-fault
	// overhead of forked instances vs plainly-booted warm instances
	// (§6.6 warm-boot discussion).
	CforkCOWFaultPenalty = 600 * time.Microsecond

	// WarmDispatchTime is the cost of dispatching a request to an
	// already-warm instance (queueing + FIFO wakeup).
	WarmDispatchTime = 350 * time.Microsecond

	// SnapshotTakeTime serializes a loaded instance's state to a snapshot
	// image (the checkpoint side of Replayable/FireCracker-style startup,
	// Fig 15 design space).
	SnapshotTakeTime = 130 * time.Millisecond

	// SnapshotRestoreTime rehydrates an instance from a snapshot through
	// the page cache — the ~45ms class of Replayable Execution, an order of
	// magnitude above cfork but far below a cold boot.
	SnapshotRestoreTime = 42 * time.Millisecond
)

// DPUStartupPenalty scales container/runtime startup work on BF-1 DPUs
// (Fig 10b baselines are ~6-7x the CPU ones: slow cores + slow eMMC I/O).
const DPUStartupPenalty = 6.5

// BF2StartupPenalty is the same for Bluefield-2 (Fig 14d: near-CPU).
const BF2StartupPenalty = 1.25

// ---------------------------------------------------------------------------
// Function DAG communication (§4.3, Fig 12, Fig 14e).
// ---------------------------------------------------------------------------

const (
	// DAGDispatchCPU is the language-runtime work per DAG hop (event
	// serialization, callback scheduling) on the host CPU. Together with the
	// FIFO/nIPC transport it forms Molecule's ~0.2ms hop (Fig 12-a).
	DAGDispatchCPU = 180 * time.Microsecond

	// DAGDispatchDPU is the same on BF-1 cores (Fig 12-b: Molecule's DPU
	// hops are ~0.4-0.6ms).
	DAGDispatchDPU = 420 * time.Microsecond

	// FlaskHopPenalty scales the baseline network edge for Python chains:
	// Flask's per-request handling is heavier than Express's (Fig 14e:
	// MapReduce's baseline hops are ~4ms vs Alexa's ~2.8ms).
	FlaskHopPenalty = 4.0 / 2.8

	// ExecutorCommandOverhead is the control-plane cost of sending a sandbox
	// command (create/start/...) to an executor on a neighbor PU and
	// receiving its completion, beyond the raw nIPC transfer. Fig 10a/b:
	// a remote cfork adds "about 1-3 ms".
	ExecutorCommandOverhead = 1500 * time.Microsecond
)

// ---------------------------------------------------------------------------
// Page/memory model (Fig 11b/c).
// ---------------------------------------------------------------------------

const (
	// PageSize is the simulated page size.
	PageSize = 4096

	// PythonRuntimePages is the resident footprint of an idle forkable
	// Python runtime (template): ~12MB (Fig 11b baseline RSS floor).
	PythonRuntimePages = (12 << 20) / PageSize

	// NodeRuntimePages is the same for Node.js (~30MB).
	NodeRuntimePages = (30 << 20) / PageSize

	// FuncPrivatePages is the per-instance private working set a function
	// dirties during load + execution (~4MB).
	FuncPrivatePages = (4 << 20) / PageSize

	// TemplateSharedFraction is the fraction of template pages that remain
	// shared (never written) in forked children. Calibrated to Fig 11c's
	// 34% PSS saving at 16 instances.
	TemplateSharedFraction = 0.48
)

// ---------------------------------------------------------------------------
// Zygote forest (package-aware cfork templates — SOCK/Forklift lineage).
// These extend the Fig 11a model: dependency import decomposes per package
// (catalog in internal/lang/packages.go), and a fitted tree of specialized
// templates lets a cold start skip the imports its ancestor already ran.
// ---------------------------------------------------------------------------

const (
	// ZygoteBudgetMB caps the summed *residual* (incremental, unshared)
	// pages of specialized templates per (runtime, PU). The Python catalog
	// totals ~71MB; 48MB forces the fitter to choose.
	ZygoteBudgetMB = 48

	// ZygoteFitColdStarts is how many observed cold starts trigger one
	// background fit round.
	ZygoteFitColdStarts = 16

	// ZygoteMinHits is the observed-demand floor below which a candidate
	// package set is not worth a template.
	ZygoteMinHits = 3

	// ZygoteMaxGrowPerFit bounds how many templates one fit round boots,
	// keeping each round's background work small and incremental.
	ZygoteMaxGrowPerFit = 4
)

// ---------------------------------------------------------------------------
// Commercial baselines (Fig 9). Closed platforms modeled by their reported
// latency; ratios in §6.3: Molecule 37-46x startup, 68-300x comms better;
// Molecule-homo 5-6x startup, 4-19x comms better.
// ---------------------------------------------------------------------------

const (
	AWSLambdaStartup  = 1150 * time.Millisecond
	OpenWhiskStartup  = 1390 * time.Millisecond
	AWSLambdaStepComm = 65 * time.Millisecond // step-function hop
	OpenWhiskComm     = 16 * time.Millisecond
)

// ---------------------------------------------------------------------------
// Function density (Fig 2a).
// ---------------------------------------------------------------------------

const (
	// DensityInstanceMemory is the per-instance memory reservation of the
	// Python image-processing function used in the density test. The host
	// supports 1000 concurrent instances (CPU resources bound), each DPU
	// adds ~256 (Fig 2a: 1000 → 1256 → 1512).
	DensityCPUInstances    = 1000
	DensityPerDPUInstances = 256
)
