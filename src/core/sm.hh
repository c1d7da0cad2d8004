/**
 * @file
 * Streaming Multiprocessor model.
 *
 * SMs are in-order processors exposing warp-level parallelism (section
 * 4): up to 64 resident warps share a single issue pipeline modelled as
 * a FIFO server, so memory latency of one warp overlaps with compute of
 * the others exactly as on real hardware. Each SM has a private L1
 * (write-through, no write-allocate, flushed at kernel boundaries under
 * software coherence).
 *
 * Memory completions arrive through a continuation (TxnDoneFn): under
 * the default chain model the continuation fires inside memAccess()
 * itself, reproducing the historical synchronous timing event for
 * event; under the staged model it fires at a later calendar event, and
 * a warp whose scoreboard slot is still in flight parks until the
 * completion wakes it — that is how finite remote MSHRs back-pressure
 * the SM.
 */

#ifndef MCMGPU_CORE_SM_HH
#define MCMGPU_CORE_SM_HH

#include <array>
#include <memory>
#include <unordered_map>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/kernel.hh"
#include "mem/cache.hh"
#include "mem/txn.hh"

namespace mcmgpu {

/**
 * Services an SM needs from the surrounding system. Implemented by
 * GpuSystem; kept abstract so SMs are unit-testable in isolation.
 */
class SmContext
{
  public:
    virtual ~SmContext() = default;

    virtual EventQueue &eventQueue() = 0;

    /**
     * The event queue module @p m schedules into. Defaults to the
     * single system queue; a domain-partitioned system (parallel
     * engine, docs/PDES.md) returns the module's home-domain queue.
     */
    virtual EventQueue &eventQueueFor(ModuleId) { return eventQueue(); }

    /**
     * Resolve an L1 miss (load) or a write-through store issued by a SM
     * on module @p src at time @p now. @p done fires exactly once with
     * the finished transaction and its completion cycle (loads: data
     * arrival; stores: home acceptance). Chain-model implementations
     * invoke it before returning; staged ones at a later event.
     */
    virtual void memAccess(ModuleId src, Addr addr, uint32_t bytes,
                           bool is_store, Cycle now, TxnDoneFn done) = 0;

    /** A CTA retired on @p sm; the scheduler may refill the slot. */
    virtual void ctaFinished(SmId sm) = 0;
};

/** One streaming multiprocessor. */
class Sm
{
  public:
    Sm(SmId id, ModuleId module, const GpuConfig &cfg, SmContext &ctx);

    SmId id() const { return id_; }
    ModuleId module() const { return module_; }

    /** Can a CTA of @p kernel be launched right now? */
    bool canAccept(const KernelDesc &kernel) const;

    /** Launch CTA @p cta of @p kernel; its warps start at @p now. */
    void launchCta(const KernelDesc &kernel, CtaId cta, Cycle now);

    uint32_t residentCtas() const { return resident_ctas_; }
    uint32_t residentWarps() const { return resident_warps_; }
    bool idle() const { return resident_warps_ == 0; }

    /** Software-coherence flush of the private L1. */
    void flushL1() { l1_.invalidateAll(); }

    Cache &l1() { return l1_; }
    const Cache &l1() const { return l1_; }

    uint64_t warpInstructions() const
    { return static_cast<uint64_t>(warp_insts_.value()); }

    stats::Group &statsGroup() { return stats_; }
    const stats::Group &statsGroup() const { return stats_; }

  private:
    /** Scoreboard-slot sentinel: the op owning the slot is still in
     *  flight (only ever observed under the staged memory model). */
    static constexpr Cycle kOpPending = kCycleMax;

    /** Field order is a host-cache layout: what every stepWarp reads
     *  (the replay flag, the trace, the first scoreboard slots) sits
     *  at the front, in the line the event's prefetch hint warms. */
    struct WarpRun
    {
        std::unique_ptr<WarpTrace> trace;
        CtaId cta;
        uint32_t inflight_idx = 0;
        /** Parked-warp state (staged model): has_replay marks a memory
         *  op that could not issue because its scoreboard slot
         *  (park_slot) was still in flight; replay_op/replay_issued
         *  replay it when the completion wakes the warp. */
        bool has_replay = false;
        /** Parked at retirement waiting for outstanding completions. */
        bool drain_parked = false;
        uint32_t park_slot = 0;
        /** Completion times of the most recent memory ops, a circular
         *  buffer of max_outstanding_per_warp entries: the warp stalls
         *  only when it would exceed its scoreboard depth. */
        std::array<Cycle, 8> inflight{};
        WarpOp replay_op{};
        Cycle replay_issued = 0;
    };

    /** Advance one warp by one operation; self-reschedules. Takes the
     *  run by value: each continuation moves ownership into the next
     *  scheduled event, so the dominant event type pays no shared_ptr
     *  refcount traffic after CTA launch. */
    void stepWarp(std::shared_ptr<WarpRun> warp);

    /** Schedule the next stepWarp of @p warp at @p when, with the run
     *  and its trace as the event's prefetch hints. */
    void scheduleStep(EventQueue &eq, Cycle when,
                      std::shared_ptr<WarpRun> warp);

    /** Memory completion: install the L1 line (loads), publish the
     *  completion cycle into the scoreboard slot, and wake the warp if
     *  it parked on this slot (issue or drain). */
    void memDone(const std::shared_ptr<WarpRun> &warp, uint32_t slot,
                 const MemTxn &txn, Cycle done);

    void warpRetired(CtaId cta);

    SmId id_;
    ModuleId module_;
    SmContext &ctx_;
    Cache l1_;
    uint32_t max_warps_;
    uint32_t max_ctas_;
    uint32_t issue_width_;
    uint32_t max_outstanding_ = 4;

    /** Next cycle the shared issue pipeline is free. */
    Cycle issue_free_ = 0;

    uint32_t resident_ctas_ = 0;
    uint32_t resident_warps_ = 0;
    std::unordered_map<CtaId, uint32_t> warps_left_; //!< per resident CTA

    stats::Group stats_;
    stats::Scalar &warp_insts_;
    stats::Scalar &mem_ops_;
    stats::Scalar &store_ops_;
    stats::Scalar &ctas_run_;
    stats::Scalar &mem_stall_cycles_;
};

} // namespace mcmgpu

#endif // MCMGPU_CORE_SM_HH
