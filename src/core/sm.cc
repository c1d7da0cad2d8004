#include "core/sm.hh"

#include <utility>

#include "common/log.hh"

namespace mcmgpu {

Sm::Sm(SmId id, ModuleId module, const GpuConfig &cfg, SmContext &ctx)
    : id_(id),
      module_(module),
      ctx_(ctx),
      l1_(cfg.l1, "sm" + std::to_string(id) + ".l1", /*write_back=*/false),
      max_warps_(cfg.max_warps_per_sm),
      max_ctas_(cfg.max_ctas_per_sm),
      issue_width_(cfg.sm_issue_width),
      stats_("sm" + std::to_string(id)),
      warp_insts_(stats_.add("warp_insts", "warp instructions executed")),
      mem_ops_(stats_.add("mem_ops", "memory operations issued")),
      store_ops_(stats_.add("store_ops", "store operations issued")),
      ctas_run_(stats_.add("ctas_run", "CTAs executed to completion")),
      mem_stall_cycles_(stats_.add("mem_stall_cycles",
                                   "cycles warps waited on a full "
                                   "memory scoreboard"))
{
    panic_if(issue_width_ == 0, "SM issue width must be positive");
    max_outstanding_ = cfg.max_outstanding_per_warp;
    if (max_outstanding_ == 0)
        max_outstanding_ = 1;
    fatal_if(max_outstanding_ > 8,
             "max_outstanding_per_warp is capped at 8 (scoreboard "
             "ring-buffer size)");
}

bool
Sm::canAccept(const KernelDesc &kernel) const
{
    return resident_ctas_ < max_ctas_ &&
           resident_warps_ + kernel.warps_per_cta <= max_warps_;
}

void
Sm::launchCta(const KernelDesc &kernel, CtaId cta, Cycle now)
{
    panic_if(!canAccept(kernel), "sm", id_, ": CTA launched without a slot");
    panic_if(!kernel.make_trace, "kernel '", kernel.name,
             "' has no trace factory");

    ++resident_ctas_;
    resident_warps_ += kernel.warps_per_cta;
    warps_left_[cta] = kernel.warps_per_cta;

    EventQueue &eq = ctx_.eventQueueFor(module_);
    for (WarpId w = 0; w < kernel.warps_per_cta; ++w) {
        auto run = std::make_shared<WarpRun>();
        run->trace = kernel.make_trace(cta, w);
        run->cta = cta;
        scheduleStep(eq, now, std::move(run));
    }
}

void
Sm::stepWarp(std::shared_ptr<WarpRun> warp)
{
    EventQueue &eq = ctx_.eventQueueFor(module_);
    const Cycle now = eq.now();

    WarpOp op;
    Cycle issued;
    if (warp->has_replay) {
        // Resuming from a park: the instruction already went through
        // fetch/issue accounting, only its memory access replays. The
        // cycles between the original issue and the wake-up are the
        // back-pressure stall.
        warp->has_replay = false;
        op = warp->replay_op;
        issued = std::max(warp->replay_issued, now);
        if (issued > warp->replay_issued)
            mem_stall_cycles_ += issued - warp->replay_issued;
    } else {
        if (!warp->trace->next(op)) {
            // Drain the scoreboard before retiring: outstanding loads
            // and posted stores must land inside the kernel's lifetime.
            Cycle drain = now;
            bool pending = false;
            for (Cycle c : warp->inflight) {
                if (c == kOpPending)
                    pending = true;
                else
                    drain = std::max(drain, c);
            }
            if (pending) {
                // Staged model: some completion times are not known
                // yet. Park; memDone() re-runs this drain check.
                warp->drain_parked = true;
            } else if (drain > now) {
                warp->inflight.fill(0);
                scheduleStep(eq, drain, std::move(warp));
            } else {
                warpRetired(warp->cta);
            }
            return;
        }
        ++warp_insts_;
        // Forward progress for the simulation watchdog: as long as some
        // warp keeps executing instructions, the machine is not stalled.
        eq.noteProgress();

        // The warp's compute segment occupies the shared issue pipeline;
        // a trailing memory instruction takes one extra issue slot.
        Cycle occupancy =
            (op.compute_cycles + issue_width_ - 1) / issue_width_ +
            (op.has_mem ? 1 : 0);
        if (occupancy == 0)
            occupancy = 1;

        Cycle start = std::max(now, issue_free_);
        issued = start + occupancy;
        issue_free_ = issued;
    }

    Cycle ready = issued;
    if (op.has_mem) {
        // Scoreboarded in-order execution: the warp keeps issuing past
        // outstanding memory ops and stalls only when it would exceed
        // its scoreboard depth — i.e. it waits for the op issued
        // max_outstanding_per_warp instructions ago.
        const uint32_t slot = warp->inflight_idx % max_outstanding_;
        const Cycle prev = warp->inflight[slot];
        if (prev == kOpPending) {
            // That op has not even completed yet (staged model): park
            // until its completion wakes us, then replay this access.
            warp->replay_op = op;
            warp->replay_issued = issued;
            warp->park_slot = slot;
            warp->has_replay = true;
            return;
        }
        ++mem_ops_;
        warp->inflight_idx++;
        ready = std::max(issued, prev);
        if (ready > issued)
            mem_stall_cycles_ += ready - issued;
        warp->inflight[slot] = kOpPending;

        if (op.is_store) {
            ++store_ops_;
            // Write-through, no write-allocate: update the L1 copy if
            // present, then post the store downstream; the scoreboard
            // slot tracks its acceptance (finite store-buffer model).
            l1_.lookup(op.addr, true, issued);
            ctx_.memAccess(module_, op.addr, op.bytes, true, issued,
                           [this, warp, slot](const MemTxn &txn,
                                              Cycle done) {
                               memDone(warp, slot, txn, done);
                           });
        } else {
            CacheLookup res = l1_.lookup(op.addr, false, issued);
            switch (res.outcome) {
              case CacheOutcome::Hit:
                warp->inflight[slot] = issued + l1_.hitLatency();
                break;
              case CacheOutcome::HitPending:
                warp->inflight[slot] = std::max(res.ready, issued);
                break;
              case CacheOutcome::Miss:
                ctx_.memAccess(module_, op.addr, l1_.lineBytes(), false,
                               issued,
                               [this, warp, slot](const MemTxn &txn,
                                                  Cycle done) {
                                   memDone(warp, slot, txn, done);
                               });
                break;
            }
        }
    }

    scheduleStep(eq, ready, std::move(warp));
}

void
Sm::scheduleStep(EventQueue &eq, Cycle when, std::shared_ptr<WarpRun> warp)
{
    // Hint the run and its trace: the queue prefetches both while the
    // event ahead of this one executes, so stepWarp's first loads
    // (the replay flag, the trace's vptr) overlap instead of chaining.
    const WarpRun *run = warp.get();
    const WarpTrace *trace = run->trace.get();
    eq.schedule(
        when,
        [this, w = std::move(warp)]() mutable { stepWarp(std::move(w)); },
        run, trace);
}

void
Sm::memDone(const std::shared_ptr<WarpRun> &warp, uint32_t slot,
            const MemTxn &txn, Cycle done)
{
    // Loads install the returned line; the fill is timed at arrival so
    // accesses racing it observe the in-flight latency.
    if (!txn.is_store)
        l1_.fill(txn.addr, false, done);
    warp->inflight[slot] = done;

    // Wake a warp parked on this completion (staged model only; under
    // chain this continuation runs inside memAccess and no park exists).
    if ((warp->has_replay && warp->park_slot == slot) ||
        warp->drain_parked) {
        warp->drain_parked = false;
        EventQueue &eq = ctx_.eventQueueFor(module_);
        const Cycle wake = std::max(done, eq.now());
        scheduleStep(eq, wake, warp);
    }
}

void
Sm::warpRetired(CtaId cta)
{
    auto it = warps_left_.find(cta);
    panic_if(it == warps_left_.end(), "sm", id_,
             ": retired warp of unknown CTA ", cta);
    panic_if(resident_warps_ == 0, "sm", id_, ": warp underflow");
    --resident_warps_;
    if (--it->second == 0) {
        warps_left_.erase(it);
        panic_if(resident_ctas_ == 0, "sm", id_, ": CTA underflow");
        --resident_ctas_;
        ++ctas_run_;
        ctx_.ctaFinished(id_);
    }
}

} // namespace mcmgpu
