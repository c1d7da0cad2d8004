/**
 * @file
 * Machine description for every GPU organization studied in the paper:
 * monolithic GPUs (buildable and hypothetical), the basic and optimized
 * MCM-GPU, and on-board multi-GPU systems.
 *
 * All named presets correspond to configurations evaluated in the paper;
 * Table 3 is exactly what mcmBasic() describes.
 */

#ifndef MCMGPU_COMMON_CONFIG_HH
#define MCMGPU_COMMON_CONFIG_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "fault/fault_plan.hh"

namespace mcmgpu {

/** Machine-description defects detectable by GpuConfig::check(). */
enum class ConfigErrc
{
    NoModules,
    NoSms,
    NoPartitions,
    BadLineSize,
    LineSizeMismatch,
    BadPageSize,
    PageBelowLine,
    InterleaveBelowLine,
    NoDramBandwidth,
    NoLinkBandwidth,
    L15NoCapacity,
    L2SliceTooSmall,
    FaultBadModule,
    FaultBadSm,
    FaultModuleFullySwept,
    FaultBadLinkDerate,
    FaultBadLinkErrorRate,
    FaultBadPartition,
    FaultAllPartitionsDead,
    BadFabricVcs,
    BadVcCredits,
    TopoBadSpec,       //!< unparseable/ill-formed --topology spec
    TopoDimsMismatch,  //!< topology dims do not cover num_modules
    TopoUnreachable,   //!< routing tables leave some pair unroutable
};

/** One defect found by GpuConfig::check(): a code plus prose. */
struct ConfigIssue
{
    ConfigErrc code;
    std::string message;
};

/** Thrown by GpuConfig::validate(); carries every issue found. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(std::vector<ConfigIssue> issues);

    const std::vector<ConfigIssue> &issues() const { return issues_; }

    /** True when some issue carries @p code (test assertions). */
    bool has(ConfigErrc code) const;

  private:
    std::vector<ConfigIssue> issues_;
};

/** How CTAs are handed to SMs (paper section 5.2). */
enum class CtaSchedPolicy
{
    /** Global round-robin across all SMs, like a monolithic GPU. */
    CentralizedRR,
    /** Contiguous CTA batches split equally among modules. */
    DistributedBatch,
    /**
     * Distributed batches plus contiguity-preserving work stealing:
     * an idle module takes the tail half of the largest remaining
     * batch. Implements the dynamic mechanism the paper leaves to
     * future work for imbalanced grids (section 5.4).
     */
    DynamicBatch,
};

/** How pages are mapped to memory partitions (paper section 5.3). */
enum class PagePolicy
{
    /** 256B-granularity interleave across all partitions (baseline). */
    FineInterleave,
    /** Page maps to the partition local to the first-touching module. */
    FirstTouch,
    /** Whole pages interleaved round-robin across partitions. */
    RoundRobinPage,
};

/** Allocation filter of the GPM-side L1.5 cache (paper section 5.1). */
enum class L15Alloc
{
    Off,        //!< no L1.5 cache present
    All,        //!< cache both local and remote lines
    RemoteOnly, //!< cache only lines homed on a remote module
};

/** Inter-module fabric model. */
enum class FabricKind
{
    /** Bidirectional ring, shortest-path routing, per-segment bandwidth. */
    Ring,
    /** 2D mesh with dimension-ordered (XY) routing. */
    Mesh,
    /** Ingress/egress port model (the paper's analytical abstraction). */
    Ports,
    /** Infinite-bandwidth zero-hop fabric (monolithic on-chip). */
    Ideal,
};

/**
 * How the memory system resolves a post-L1 access.
 *
 * Chain computes the whole L1.5 → fabric → L2 → DRAM round trip
 * synchronously at issue (the historical model; bit-identical timing,
 * zero extra events). Staged walks the same path as a split
 * transaction — one calendar event per pipeline stage — which makes
 * in-flight occupancy observable over simulated time and enables
 * finite per-module remote MSHRs (`remote_mshrs`) with stall-on-full
 * back-pressure into the SM scoreboard.
 */
enum class MemModel
{
    Chain,  //!< synchronous chain-equivalent composition (default)
    Staged, //!< event-per-stage split transactions
};

/**
 * How the fabric chooses among equal-cost candidate routes
 * (docs/TOPOLOGY.md "Route policies").
 *
 * Static reproduces the legacy behaviour bit for bit: ties alternate on
 * a global toggle, everything else takes its single candidate. Adaptive
 * scores each candidate by the summed backlogCycles(now) of its links
 * and takes the least-congested one, breaking score ties towards the
 * lowest candidate index; when every candidate scores the same it falls
 * back to the legacy toggle — turning the congestion telemetry into a
 * closed control loop while staying fully deterministic.
 */
enum class RoutePolicy
{
    Static,   //!< legacy toggle over ties (default; bit-identical)
    Adaptive, //!< least-backlog candidate, toggle only on full ties
};

/** Geometry/latency of one set-associative cache level. */
struct CacheGeometry
{
    uint64_t size_bytes = 0;
    uint32_t line_bytes = 128;
    uint32_t ways = 16;
    Cycle hit_latency = 30;

    uint32_t
    numSets() const
    {
        if (size_bytes == 0)
            return 0;
        return static_cast<uint32_t>(size_bytes /
                                     (static_cast<uint64_t>(line_bytes) *
                                      ways));
    }
};

/**
 * Full description of one logical GPU. Sizes marked "total" are summed
 * over the entire logical GPU and divided among modules/partitions when
 * the machine is instantiated.
 */
struct GpuConfig
{
    std::string name = "unnamed";

    // --- Organization -----------------------------------------------------
    uint32_t num_modules = 4;       //!< GPMs (or discrete GPUs on a board)
    uint32_t sms_per_module = 64;
    uint32_t partitions_per_module = 1;

    // --- SM ----------------------------------------------------------------
    uint32_t max_warps_per_sm = 64;
    uint32_t max_ctas_per_sm = 16;
    uint32_t sm_issue_width = 1;    //!< warp-instructions issued per cycle
    /** In-order SMs scoreboard loads and keep issuing until a value is
     *  consumed; this caps the independent memory requests one warp may
     *  have in flight (per-warp MLP). */
    uint32_t max_outstanding_per_warp = 4;

    // --- Caches -------------------------------------------------------------
    CacheGeometry l1{128 * KiB, 128, 4, 4};    //!< per SM
    CacheGeometry l15{0, 128, 16, 16};         //!< per module (total below)
    CacheGeometry l2{16 * MiB, 128, 16, 30};   //!< total across the GPU
    uint64_t l15_total_bytes = 0;              //!< summed over all modules
    L15Alloc l15_alloc = L15Alloc::Off;
    /** Serial tag-check latency added to requests that miss the L1.5
     *  before they can head for the fabric (cause of the paper's
     *  DWT/NN regressions). */
    Cycle l15_miss_penalty = 4;

    // --- DRAM ----------------------------------------------------------------
    double dram_total_gbps = 3072.0;   //!< aggregate DRAM bandwidth (GB/s)
    double dram_latency_ns = 100.0;
    uint32_t channels_per_partition = 8;
    /** Read/write bus-turnaround penalty per channel: switching a
     *  channel's bus direction costs this many cycles before the next
     *  access is served. 0 (the default) disables the model entirely —
     *  timing stays bit-identical to the turnaround-free seed. */
    Cycle dram_turnaround_cycles = 0;
    /** Write-drain policy (only meaningful with a turnaround penalty):
     *  posted writes buffer per channel and drain as one batch once
     *  this many accumulate — or when a read needs the bus — paying one
     *  turnaround per batch instead of one per interleaved write.
     *  0 keeps every write immediate. */
    uint32_t dram_write_drain = 0;

    // --- Inter-module fabric --------------------------------------------------
    FabricKind fabric = FabricKind::Ring;
    double link_gbps = 768.0;          //!< aggregate GB/s of one link
                                       //!< (both directions combined)
    Cycle link_hop_cycles = 32;        //!< per-hop latency penalty
    bool board_level_links = false;    //!< true for multi-GPU systems
    /**
     * Declarative topology spec ("ring", "mesh2d:RxC",
     * "ring-of-rings:G/R", "package:P" — docs/TOPOLOGY.md). Empty (the
     * default) derives the topology from `fabric` above, preserving
     * historical behaviour bit for bit. Non-empty specs win over
     * `fabric` and are validated by check().
     */
    std::string topology;
    /** Inter-package (NVLink-class) link pricing, used only by the
     *  package:P topology's board-tier links; on-package GRS links keep
     *  using link_gbps / link_hop_cycles. Aggregate GB/s per link. */
    double pkg_link_gbps = 256.0;
    Cycle pkg_link_hop_cycles = 256;
    /** Equal-cost candidate selection on the table-routed fabric.
     *  Static (the default) keeps timing bit-identical to the legacy
     *  toggle; Adaptive steers each message onto the candidate with the
     *  least summed link backlog at send time (docs/TOPOLOGY.md). The
     *  analytic Ports and Ideal fabrics have no route candidates and
     *  ignore it. */
    RoutePolicy route_policy = RoutePolicy::Static;

    // --- Energy (Table 2) -----------------------------------------------------
    double chip_pj_per_bit = 0.080;    //!< on-chip movement, 80 fJ/b
    double package_pj_per_bit = 0.5;   //!< on-package GRS links
    double board_pj_per_bit = 10.0;    //!< on-board (multi-GPU) links

    // --- Memory pipeline ---------------------------------------------------------
    /** Split-transaction model selector; Chain reproduces the seed
     *  timing bit-for-bit. */
    MemModel mem_model = MemModel::Chain;
    /** Per-module remote MSHRs under MemModel::Staged: requests homed
     *  on a remote module wait for a free entry before entering the
     *  fabric (section 4.1's outstanding-request pressure). 0 means
     *  unbounded; ignored under MemModel::Chain. */
    uint32_t remote_mshrs = 0;
    /** Fabric virtual channels under MemModel::Staged. 0 disables
     *  credit flow control entirely (the default: transactions enter
     *  the fabric unconditionally, timing identical to today). 1 runs
     *  requests and responses through one shared credit pool — a
     *  deliberately deadlock-prone protocol used for diagnosis tests.
     *  2 gives responses their own channel, making the fabric
     *  protocol-deadlock-free by construction (see docs/FABRIC.md). */
    uint32_t fabric_vcs = 0;
    /** Credits (buffer slots) per VC per directed GPM pair; a class
     *  out of credits parks in a bounded FIFO until a credit frees.
     *  Ignored when fabric_vcs == 0. */
    uint32_t vc_credits = 64;

    // --- Memory management ------------------------------------------------------
    PagePolicy page_policy = PagePolicy::FineInterleave;
    uint64_t page_bytes = 4 * KiB;
    uint32_t interleave_bytes = 256;   //!< fine-interleave granularity

    // --- Scheduling ----------------------------------------------------------
    CtaSchedPolicy cta_sched = CtaSchedPolicy::CentralizedRR;
    /** Driver + hardware kernel launch latency, scaled to this
     *  suite's shortened kernels (real launches cost 2-10 us; these
     *  kernels are ~100x shorter than the paper's 1B-instruction
     *  windows). The serial cost is what bends Figure 2's strong
     *  scaling below linear. */
    Cycle kernel_launch_cycles = 300;

    // --- Faults & guard rails --------------------------------------------------
    /** Injected degradation; empty = pristine machine. */
    FaultPlan fault;
    /** No-progress watchdog window: pending events but no retired warp
     *  instruction for this many cycles (or events) raises a SimStall
     *  with a machine-occupancy diagnostic. 0 disables the watchdog. */
    Cycle watchdog_cycles = 2'000'000;
    /** Hard per-run cycle budget; kCycleMax = unlimited. Hitting it
     *  surfaces RunStatus::CycleLimit rather than an error. */
    Cycle cycle_limit = kCycleMax;

    // --- Parallel-in-run simulation (docs/PDES.md) -----------------------------
    /** Worker threads for the conservative PDES engine: each GPM's
     *  events run in their own simulation domain, synchronized at
     *  lookahead-bounded window barriers. 1 (the default) keeps the
     *  historical single-queue serial engine, bit for bit. Values > 1
     *  require an eligible machine (staged memory model, static
     *  single-candidate routes, distributed CTA scheduling, ...);
     *  ineligible machines warn once and run serially. */
    uint32_t sim_threads = 1;

    // --- Derived helpers -------------------------------------------------------
    uint32_t totalSms() const { return num_modules * sms_per_module; }
    uint32_t totalPartitions() const
    { return num_modules * partitions_per_module; }
    double dramGbpsPerPartition() const
    { return dram_total_gbps / totalPartitions(); }
    uint64_t l2BytesPerPartition() const
    { return l2.size_bytes / totalPartitions(); }
    uint64_t l15BytesPerModule() const
    { return l15_total_bytes / num_modules; }

    /**
     * Structured consistency check: every defect found, including
     * fault-plan sanity (out-of-range ids, a fully swept GPM, every
     * partition dead). Empty result = valid machine.
     */
    std::vector<ConfigIssue> check() const;

    /** Throw a ConfigError listing every check() issue; no-op if valid. */
    void validate() const;

    // --- Fluent mutators used by experiment sweeps ------------------------------
    GpuConfig &withName(std::string n) { name = std::move(n); return *this; }
    GpuConfig &withLinkGbps(double gbps) { link_gbps = gbps; return *this; }
    GpuConfig &withL15(uint64_t total_bytes, L15Alloc alloc);
    GpuConfig &withSched(CtaSchedPolicy p) { cta_sched = p; return *this; }
    GpuConfig &withPagePolicy(PagePolicy p) { page_policy = p; return *this; }
    GpuConfig &withFault(FaultPlan plan)
    { fault = std::move(plan); return *this; }
    GpuConfig &
    withMemModel(MemModel m, uint32_t mshrs = 0)
    {
        mem_model = m;
        remote_mshrs = mshrs;
        return *this;
    }
    GpuConfig &
    withFabricVcs(uint32_t vcs, uint32_t credits = 64)
    {
        fabric_vcs = vcs;
        vc_credits = credits;
        return *this;
    }
    GpuConfig &
    withTopology(std::string spec)
    {
        topology = std::move(spec);
        return *this;
    }
    GpuConfig &
    withRoutePolicy(RoutePolicy p)
    {
        route_policy = p;
        return *this;
    }
    GpuConfig &
    withSimThreads(uint32_t n)
    {
        sim_threads = n == 0 ? 1 : n;
        return *this;
    }
};

namespace configs {

/**
 * A monolithic single-die GPU with @p num_sms SMs; L2 capacity and DRAM
 * bandwidth scale proportionally with SM count as in Figure 2
 * (384 GB/s + 2 MB at 32 SMs up to 3 TB/s + 16 MB at 256 SMs).
 */
GpuConfig monolithic(uint32_t num_sms);

/** The largest GPU assumed buildable on one die: 128 SMs (section 2.1). */
GpuConfig monolithicBuildableMax();

/** The hypothetical, unbuildable 256-SM monolithic GPU. */
GpuConfig monolithicUnbuildable();

/** Table 3: the basic 4-GPM, 256-SM MCM-GPU. */
GpuConfig mcmBasic(double link_gbps = 768.0);

/** Basic MCM-GPU plus a remote-only L1.5 of @p l15_total bytes. */
GpuConfig mcmWithL15(uint64_t l15_total, L15Alloc alloc = L15Alloc::RemoteOnly,
                     double link_gbps = 768.0);

/**
 * The fully optimized MCM-GPU (section 5.4): 8MB remote-only L1.5 +
 * 8MB L2, distributed CTA scheduling, first-touch page placement.
 */
GpuConfig mcmOptimized(double link_gbps = 768.0);

/** Basic MCM-GPU rewired as a 2x2 mesh (Figure 1's package layout):
 *  same GPMs and link pricing, dimension-ordered routing. */
GpuConfig mcmMesh();

/**
 * Basic MCM-GPU with the calibrated DRAM bus-turnaround model armed:
 * an 8-cycle read/write turnaround per channel plus a 16-entry posted
 * write-drain batch (PR 7's sweep; see docs/MODEL.md §DRAM). Validated
 * against a write-heavy streaming workload — batching drains keeps the
 * turnaround tax to one penalty per batch instead of one per write.
 */
GpuConfig mcmTurnaround();

/** The mesh preset with congestion-aware route selection: identical
 *  machine, but equal-cost XY/YX candidates are picked by least summed
 *  link backlog instead of the static toggle (docs/TOPOLOGY.md). */
GpuConfig mcmMeshAdaptive();

/** Basic MCM-GPU as a ring-of-rings: 2 local rings of 2 GPMs plus an
 *  express ring over the group gateways. */
GpuConfig mcmRingOfRings();

/** Two basic MCM packages on one board: on-package rings bridged by
 *  NVLink-class inter-package links (8 GPMs, 512 SMs total). */
GpuConfig mcmPackage();

/**
 * Baseline 2x128-SM multi-GPU (section 6.1): 256 GB/s aggregate board
 * link, distributed scheduling + first touch, no GPU-side remote cache.
 */
GpuConfig multiGpuBaseline();

/** Optimized multi-GPU: half of each GPU's L2 becomes a remote-only cache. */
GpuConfig multiGpuOptimized();

} // namespace configs

} // namespace mcmgpu

#endif // MCMGPU_COMMON_CONFIG_HH
