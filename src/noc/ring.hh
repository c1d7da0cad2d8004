/**
 * @file
 * Inter-module fabrics.
 *
 * The paper's basic MCM-GPU connects GPM crossbars into "a modular
 * on-package ring or mesh" (section 3.2); the analytical sizing of
 * section 3.3.1 abstracts the fabric as per-GPM ingress/egress port
 * bandwidth. Fabric::create builds one of three from a machine:
 *
 *  - TableRoutedFabric (topo/table_fabric.hh): any compiled topology
 *                 spec, the default `ring` included.
 *  - PortsFabric: one egress + one ingress server per module
 *                 (`--topology ports`).
 *  - IdealFabric: zero latency, infinite bandwidth (any single-module
 *                 machine: an on-chip crossbar).
 *
 * RingFabric and MeshFabric are the hand-written reference models the
 * compiled `ring` and `mesh2d` topologies are tested against; no
 * simulation builds them.
 */

#ifndef MCMGPU_NOC_RING_HH
#define MCMGPU_NOC_RING_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "noc/link.hh"

namespace mcmgpu {

/** Result of pushing a message through a fabric. */
struct FabricTransfer
{
    Cycle arrival = 0;  //!< when the last byte reaches the destination
    uint32_t hops = 0;  //!< number of link traversals
    /** The route crossed a board-class (inter-package) link, so the
     *  bytes price at board energy. Legacy single-tier fabrics leave
     *  this false and the machine-wide link domain applies. */
    bool board = false;
};

/**
 * Construct one link with @p plan's degradation for the segment
 * leaving @p upstream applied: derated bandwidth, and a transient-error
 * process seeded per link (@p salt keeps parallel link arrays — cw/ccw,
 * egress/ingress — on distinct error streams). nullptr plan = clean link.
 */
Link makeFaultedLink(std::string name, double gbps, Cycle hop_cycles,
                     const FaultPlan *plan, ModuleId upstream,
                     uint64_t salt);

/** Abstract inter-module interconnect. */
class Fabric
{
  public:
    virtual ~Fabric() = default;

    /**
     * Move @p bytes from module @p src to module @p dst starting at
     * @p now. src == dst is a no-op returning now.
     */
    virtual FabricTransfer send(ModuleId src, ModuleId dst,
                                uint64_t bytes, Cycle now) = 0;

    /** Total bytes that crossed inter-module links (hops weighted). */
    virtual uint64_t linkBytes() const = 0;

    /**
     * Total payload bytes injected into the fabric (each message counted
     * once, regardless of path length). This is the "inter-GPM
     * bandwidth" metric of Figures 7/10/14.
     */
    virtual uint64_t injectedBytes() const = 0;

    /** Transient link errors hit so far (0 on fault-free fabrics). */
    virtual uint64_t transientErrors() const { return 0; }

    /** One line per link: rate, carried bytes, busy cycles, errors.
     *  Feeds the watchdog's stall diagnostic. */
    virtual void dumpOccupancy(std::ostream &) const {}

    /** Visitor for one physical link: a stable display name (e.g.
     *  "ring.cw.2->3") plus the link itself. */
    using LinkVisitor = std::function<void(const std::string &, Link &)>;

    /**
     * Call @p visit once per directional link in a deterministic,
     * topology-defined order. The observability layer uses this to
     * attach per-link probes and harvest busy intervals without
     * knowing fabric internals. Default: no links (IdealFabric).
     */
    virtual void visitLinks(const LinkVisitor &) {}

    /**
     * Record every hop's traversal latency (service + queueing +
     * hop cycles) into @p hist. Purely observational; not owned,
     * nullptr detaches. Default: unsupported (ignored) — the
     * table-routed fabric implements it.
     */
    virtual void setHopHistogram(stats::Histogram *) {}

    /** Sends where the adaptive route policy scored a multi-candidate
     *  pair (0 on fabrics without adaptive routing, or under the
     *  static policy). */
    virtual uint64_t routeAdaptivePicks() const { return 0; }

    /** Adaptive picks that chose a different candidate than the legacy
     *  toggle would have — messages actually steered by congestion. */
    virtual uint64_t routeDiverted() const { return 0; }

    /** Distribution of chosen candidate indices over all adaptive
     *  multi-candidate picks (element i = times candidate i won).
     *  Empty on fabrics without adaptive routing. */
    virtual std::vector<uint64_t> routeCandidatePicks() const { return {}; }

    /**
     * Minimum cross-module route latency in cycles: min over src != dst
     * of the candidate-0 route's summed hop cycles. This is the PDES
     * engine's conservative lookahead. 0 = unknown (only the
     * table-routed fabric computes it), which disables parallel runs.
     */
    virtual Cycle minRouteCycles() const { return 0; }

    /**
     * True when every (src, dst) pair routes over exactly one candidate,
     * i.e. send() carries no tie-breaking toggle state and the message
     * processing order at a PDES barrier cannot change route choice.
     */
    virtual bool routesSingleCandidate() const { return false; }

    /**
     * Factory from a machine description: IdealFabric for one module,
     * PortsFabric for the `ports` spec, else the table-routed compiled
     * topology. Applies the config's FaultPlan (bandwidth derating,
     * transient-error processes) to every constructed link.
     */
    static std::unique_ptr<Fabric> create(const GpuConfig &cfg);
};

/** Bidirectional ring with shortest-path routing. */
class RingFabric : public Fabric
{
  public:
    /**
     * @param nodes       number of ring stops (modules)
     * @param gbps        bandwidth per segment per direction, GB/s
     * @param hop_cycles  latency per hop
     * @param plan        optional degradation to apply per segment
     */
    RingFabric(uint32_t nodes, double gbps, Cycle hop_cycles,
               const FaultPlan *plan = nullptr);

    FabricTransfer send(ModuleId src, ModuleId dst, uint64_t bytes,
                        Cycle now) override;
    uint64_t linkBytes() const override;
    uint64_t injectedBytes() const override { return injected_; }
    uint64_t transientErrors() const override;
    void dumpOccupancy(std::ostream &os) const override;
    void visitLinks(const LinkVisitor &visit) override;

    /** Hop count of the route chosen from src to dst (for tests). */
    uint32_t routeHops(ModuleId src, ModuleId dst) const;

    /** The segment leaving module @p m clockwise (for tests). */
    const Link &cwLink(ModuleId m) const { return cw_.at(m); }

  private:
    uint32_t nodes_;
    std::vector<Link> cw_;  //!< cw_[i]: i -> (i+1) % nodes
    std::vector<Link> ccw_; //!< ccw_[i]: i -> (i-1+nodes) % nodes
    uint64_t injected_ = 0;
    uint64_t route_toggle_ = 0; //!< balances equal-distance routes
};

/**
 * 2D mesh with dimension-ordered (XY) routing; nodes are arranged in
 * the most-square grid that fits the module count. Each mesh edge is a
 * pair of directional links sized like ring segments. For four modules
 * this is the 2x2 grid of Figure 1's package layout.
 */
class MeshFabric : public Fabric
{
  public:
    MeshFabric(uint32_t nodes, double gbps, Cycle hop_cycles,
               const FaultPlan *plan = nullptr);

    FabricTransfer send(ModuleId src, ModuleId dst, uint64_t bytes,
                        Cycle now) override;
    uint64_t linkBytes() const override;
    uint64_t injectedBytes() const override { return injected_; }
    uint64_t transientErrors() const override;
    void dumpOccupancy(std::ostream &os) const override;
    void visitLinks(const LinkVisitor &visit) override;

    uint32_t cols() const { return cols_; }
    uint32_t rows() const { return rows_; }

  private:
    /** Directional link index between adjacent nodes a -> b. */
    size_t linkIndex(uint32_t a, uint32_t b) const;

    uint32_t cols_ = 1;
    uint32_t rows_ = 1;
    uint32_t nodes_;
    /** Links keyed by (from * nodes + to) for adjacent pairs. */
    std::vector<Link> links_;
    std::vector<int32_t> link_of_; //!< -1 when not adjacent
    uint64_t injected_ = 0;
};

/** Per-module ingress/egress port model (analytical abstraction). */
class PortsFabric : public Fabric
{
  public:
    PortsFabric(uint32_t nodes, double gbps, Cycle hop_cycles,
                const FaultPlan *plan = nullptr);

    FabricTransfer send(ModuleId src, ModuleId dst, uint64_t bytes,
                        Cycle now) override;
    uint64_t linkBytes() const override;
    uint64_t injectedBytes() const override { return injected_; }
    uint64_t transientErrors() const override;
    void dumpOccupancy(std::ostream &os) const override;
    void visitLinks(const LinkVisitor &visit) override;

  private:
    std::vector<Link> egress_;
    std::vector<Link> ingress_;
    uint64_t injected_ = 0;
};

/** The on-chip case: no inter-module cost at all. */
class IdealFabric : public Fabric
{
  public:
    FabricTransfer
    send(ModuleId, ModuleId, uint64_t, Cycle now) override
    {
        return {now, 0};
    }

    uint64_t linkBytes() const override { return 0; }
    uint64_t injectedBytes() const override { return 0; }
};

} // namespace mcmgpu

#endif // MCMGPU_NOC_RING_HH
