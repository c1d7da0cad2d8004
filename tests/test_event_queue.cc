/**
 * @file
 * Unit tests for the deterministic discrete-event engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"

namespace mcmgpu {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10)
            eq.schedule(eq.now() + 7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.now(), 63u);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    EXPECT_EQ(eq.run(50), EventQueue::Outcome::LimitHit)
        << "limit hit: queue not drained";
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_ANY_THROW(eq.schedule(50, [] {}));
}

TEST(EventQueue, SchedulingAtNowIsAllowed)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        eq.schedule(eq.now(), [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ResetRewindsTime)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    eq.step();
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Cycle>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

TEST(EventQueue, LargeFanOutIsStable)
{
    EventQueue eq;
    uint64_t sum = 0;
    for (Cycle t = 0; t < 10000; ++t)
        eq.schedule(t ^ 0x2a5, [&sum, t] { sum += t; });
    eq.run();
    EXPECT_EQ(sum, 9999ull * 10000ull / 2ull);
}

TEST(EventQueue, WatchdogThrowsOnAdvancingTimeLivelock)
{
    EventQueue eq;
    eq.setWatchdog(100);
    // Self-rescheduling event that never calls noteProgress: time
    // advances but no work retires.
    std::function<void()> spin = [&] { eq.schedule(eq.now() + 10, spin); };
    eq.schedule(0, spin);
    EXPECT_THROW(eq.run(), SimStall);
}

TEST(EventQueue, WatchdogThrowsOnSameCycleLivelock)
{
    EventQueue eq;
    eq.setWatchdog(100);
    // Livelock at a single cycle: the cycle watermark never moves, the
    // event-count window is what trips.
    std::function<void()> spin = [&] { eq.schedule(eq.now(), spin); };
    eq.schedule(5, spin);
    EXPECT_THROW(eq.run(), SimStall);
}

TEST(EventQueue, WatchdogSparedByProgress)
{
    EventQueue eq;
    eq.setWatchdog(100);
    int fired = 0;
    std::function<void()> work = [&] {
        eq.noteProgress(); // retires work every 90 cycles: never stalls
        if (++fired < 50)
            eq.schedule(eq.now() + 90, work);
    };
    eq.schedule(0, work);
    EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
    EXPECT_EQ(fired, 50);
    EXPECT_EQ(eq.progressMarks(), 50u);
}

TEST(EventQueue, WatchdogDiagnosticCarriesMachineDump)
{
    EventQueue eq;
    eq.setWatchdog(50, [] { return std::string("custom machine dump"); });
    std::function<void()> spin = [&] { eq.schedule(eq.now() + 1, spin); };
    eq.schedule(0, spin);
    try {
        eq.run();
        FAIL() << "expected SimStall";
    } catch (const SimStall &stall) {
        EXPECT_NE(stall.diagnostic().find("custom machine dump"),
                  std::string::npos);
        EXPECT_NE(stall.diagnostic().find("no progress"),
                  std::string::npos);
    }
}

TEST(EventQueue, WatchdogDisabledByDefault)
{
    EventQueue eq;
    int hops = 0;
    // Spin for far longer than any plausible default window; without
    // setWatchdog the queue must keep going until it drains.
    std::function<void()> spin = [&] {
        if (++hops < 100000)
            eq.schedule(eq.now() + 1, spin);
    };
    eq.schedule(0, spin);
    EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
    EXPECT_EQ(hops, 100000);
}

// --- Sample-hook boundary regressions -----------------------------------
// The sample hook must behave identically however the queue is driven.
// Historically step() bypassed the boundary logic entirely, so anything
// single-stepping the queue (or mixing step() and run()) silently lost
// sample windows.

TEST(EventQueue, StepCrossesSampleBoundaries)
{
    EventQueue eq;
    std::vector<Cycle> marks;
    eq.setSampleHook(10, [&](Cycle c) { marks.push_back(c); });
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.schedule(25, [&] { ++fired; });
    EXPECT_TRUE(eq.step()); // event at 5: no boundary crossed yet
    EXPECT_TRUE(marks.empty());
    EXPECT_TRUE(eq.step()); // event at 25 crosses boundaries 10 and 20
    EXPECT_EQ(marks, (std::vector<Cycle>{10, 20}));
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepAndRunAgreeOnBoundaries)
{
    // Crossing a boundary via step() must consume it: a following run()
    // may not re-fire 10 or 20, and vice versa.
    EventQueue eq;
    std::vector<Cycle> marks;
    eq.setSampleHook(10, [&](Cycle c) { marks.push_back(c); });
    eq.schedule(25, [] {});
    EXPECT_TRUE(eq.step());
    eq.schedule(31, [] {});
    EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
    EXPECT_EQ(marks, (std::vector<Cycle>{10, 20, 30}));
}

TEST(EventQueue, BoundaryExactFirstEventFiresHookOnce)
{
    // First event of a window lands exactly on a period multiple: the
    // boundary fires once, before the event, and is then consumed.
    EventQueue eq;
    std::vector<Cycle> marks;
    std::vector<Cycle> events;
    eq.setSampleHook(10, [&](Cycle c) { marks.push_back(c); });
    eq.schedule(10, [&] { events.push_back(eq.now()); });
    eq.schedule(10, [&] { events.push_back(eq.now()); });
    eq.schedule(20, [&] { events.push_back(eq.now()); });
    EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
    EXPECT_EQ(marks, (std::vector<Cycle>{10, 20}));
    EXPECT_EQ(events, (std::vector<Cycle>{10, 10, 20}));
}

TEST(EventQueue, ResetRearmsSampleHook)
{
    // reset() rewinds time to zero with the hook still armed: the next
    // run must fire period, 2*period... afresh — exactly once each,
    // with no leftover boundary from the previous run.
    EventQueue eq;
    std::vector<Cycle> marks;
    eq.setSampleHook(10, [&](Cycle c) { marks.push_back(c); });
    eq.schedule(35, [] {});
    eq.run();
    EXPECT_EQ(marks, (std::vector<Cycle>{10, 20, 30}));
    eq.reset();
    marks.clear();
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_EQ(marks, (std::vector<Cycle>{10}));
}

// --- Calendar/far-heap structural lock-ins ------------------------------

TEST(EventQueue, TieBreakSurvivesWindowMigration)
{
    // Same-cycle events must run in insertion order even when the cycle
    // is far enough ahead to sit in the far heap and be migrated into
    // the calendar when the window advances.
    EventQueue eq;
    std::vector<int> order;
    const Cycle far = 100000; // well past the calendar window
    for (int i = 0; i < 16; ++i)
        eq.schedule(far, [&order, i] { order.push_back(i); });
    eq.schedule(1, [&order] { order.push_back(-1); });
    EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
    ASSERT_EQ(order.size(), 17u);
    EXPECT_EQ(order.front(), -1);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i) + 1], i);
}

TEST(EventQueue, ScheduleAfterLimitHitBeforeFarEvent)
{
    // run(limit) stops with a far-future event still queued; the caller
    // then schedules work between now and that event. The near event
    // must execute first — the pending far event must not have dragged
    // internal state past it.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1000000, [&] { order.push_back(1); });
    EXPECT_EQ(eq.run(100), EventQueue::Outcome::LimitHit);
    eq.schedule(200, [&] { order.push_back(0); });
    EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), 1000000u);
}

TEST(EventQueue, InterleavedNearAndFarOrdering)
{
    // Pseudo-random mix of near/far schedules from inside events: the
    // execution sequence must be non-decreasing in time and total.
    EventQueue eq;
    uint64_t x = 12345;
    auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    int fired = 0;
    Cycle last = 0;
    std::function<void()> spawn = [&] {
        ++fired;
        EXPECT_GE(eq.now(), last);
        last = eq.now();
        if (fired < 20000) {
            // Mostly near, occasionally far beyond the window.
            const Cycle d = (rnd() % 16 == 0) ? 5000 + rnd() % 20000
                                              : rnd() % 64;
            eq.schedule(eq.now() + d, spawn);
        }
    };
    eq.schedule(0, spawn);
    EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
    EXPECT_EQ(fired, 20000);
    EXPECT_EQ(eq.executed(), 20000u);
}

TEST(EventQueue, ResetReclaimsAndRestartsCleanly)
{
    // Slab-allocated nodes must survive a reset-with-pending-events and
    // keep executing correctly afterwards (stress the freelist).
    EventQueue eq;
    for (int round = 0; round < 3; ++round) {
        int fired = 0;
        for (int i = 0; i < 5000; ++i)
            eq.schedule(static_cast<Cycle>(i % 97 + (i % 7) * 4096),
                        [&] { ++fired; });
        if (round < 2) {
            eq.reset(); // pending events dropped, never fired
            EXPECT_EQ(fired, 0);
            EXPECT_TRUE(eq.empty());
            EXPECT_EQ(eq.now(), 0u);
        } else {
            EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
            EXPECT_EQ(fired, 5000);
        }
    }
}

TEST(EventQueue, ResetClearsWatchdogWatermark)
{
    EventQueue eq;
    eq.setWatchdog(100);
    eq.schedule(0, [&] { eq.noteProgress(); });
    eq.run();
    eq.reset();
    // After reset the stale progress/cycle watermark must not count
    // against the fresh run.
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.noteProgress();
    });
    EXPECT_EQ(eq.run(), EventQueue::Outcome::Drained);
    EXPECT_EQ(fired, 1);
}

// --- PDES window interface (docs/PDES.md) ----------------------------------

TEST(EventQueueWindow, RunWindowStopsAtExclusiveEnd)
{
    EventQueue eq;
    std::vector<Cycle> ran;
    for (Cycle t : {3u, 7u, 10u, 11u, 40u})
        eq.schedule(t, [&ran, t] { ran.push_back(t); });
    EXPECT_EQ(eq.runWindow(10), 2u); // 3 and 7; 10 is excluded
    EXPECT_EQ(ran, (std::vector<Cycle>{3, 7}));
    EXPECT_EQ(eq.runWindow(41), 3u);
    EXPECT_EQ(ran, (std::vector<Cycle>{3, 7, 10, 11, 40}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueWindow, DeliveredEventsSortByScheduleStamp)
{
    // A delivered event carries the schedule stamp of the event that
    // emitted it; within one cycle it must run where a single global
    // queue would have run it — before locally-scheduled events whose
    // schedule stamp is later, even though those were inserted first.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(4, [&] {}); // advance now so sched stamps differ
    eq.runWindow(5);
    eq.schedule(9, [&] { order.push_back(1); });  // sched stamp 4
    eq.scheduleDelivered(9, 2, [&] { order.push_back(0); });
    eq.scheduleDelivered(9, 7, [&] { order.push_back(2); });
    eq.runWindow(10);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueWindow, BarrierDeliveryBelowDrainCursorStillExecutes)
{
    // After a window drains, the queue's internal drain cursor parks at
    // its next pending event. A barrier delivery may target an earlier
    // cycle (past the window end but before that event); it must not be
    // stranded behind the cursor.
    EventQueue eq;
    std::vector<Cycle> ran;
    eq.schedule(5, [&] { ran.push_back(5); });
    eq.schedule(50, [&] { ran.push_back(50); });
    EXPECT_EQ(eq.runWindow(10), 1u); // cursor now parked at cycle 50
    Cycle w = 0, s = 0;
    ASSERT_TRUE(eq.peekTimes(w, s));
    EXPECT_EQ(w, 50u);
    eq.scheduleDelivered(12, 8, [&] { ran.push_back(12); });
    ASSERT_TRUE(eq.peekTimes(w, s));
    EXPECT_EQ(w, 12u); // the delivery is visible, not stranded
    EXPECT_EQ(s, 8u);
    eq.runWindow(100);
    EXPECT_EQ(ran, (std::vector<Cycle>{5, 12, 50}));
}

TEST(EventQueueWindow, PeekTimesDoesNotExecute)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(6, [&] { ++fired; });
    Cycle w = 0, s = 0;
    ASSERT_TRUE(eq.peekTimes(w, s));
    EXPECT_EQ(w, 6u);
    EXPECT_EQ(s, 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.size(), 1u);
    eq.runWindow(7);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.peekTimes(w, s));
}

TEST(EventQueueWindow, WindowsComposeWithRun)
{
    // Alternating runWindow and run must execute the same population in
    // the same order as a single run would.
    auto populate = [](EventQueue &q, std::vector<Cycle> &ran) {
        for (Cycle t : {2u, 9u, 9u, 17u, 300u, 4100u})
            q.schedule(t, [&ran, t] { ran.push_back(t); });
    };
    EventQueue serial;
    std::vector<Cycle> serial_ran;
    populate(serial, serial_ran);
    serial.run();

    EventQueue windowed;
    std::vector<Cycle> window_ran;
    populate(windowed, window_ran);
    windowed.runWindow(9);
    windowed.runWindow(20);
    EXPECT_EQ(windowed.run(), EventQueue::Outcome::Drained);
    EXPECT_EQ(window_ran, serial_ran);
    EXPECT_EQ(windowed.now(), serial.now());
}

// --- Prefetch hints ----------------------------------------------------------

/** What one callback observed of the queue when it ran. */
struct Fired
{
    int id;
    Cycle now;
    Cycle sched_when;
    bool operator==(const Fired &) const = default;
};

enum class Drain { Run, Windows, Step };

/**
 * A seeded, self-growing event population: every event schedules one
 * or two more at the same cycle, a few cycles out, past the calendar
 * window (far heap) or as a delivery with an earlier schedule stamp.
 * With hints on, each schedule() names two hints drawn from live
 * objects, nullptr and freed objects, and deliveries (which take no
 * hints) sit between hinted nodes in the same buckets. The random
 * stream is consumed identically either way, so only the hints differ
 * between runs.
 */
class HintScenario
{
  public:
    HintScenario(uint64_t seed, bool hinted)
        : rng_(seed), window_rng_(seed ^ 0x5eed), hinted_(hinted)
    {
        for (size_t i = 0; i < kPool; ++i) {
            live_.push_back(std::make_unique<uint64_t[]>(32));
            auto *dead = new uint64_t[32];
            freed_.push_back(dead);
            delete[] dead;
        }
    }

    std::vector<Fired>
    drain(Drain how)
    {
        for (int i = 0; i < 16; ++i)
            add();
        switch (how) {
          case Drain::Run:
            EXPECT_EQ(eq_.run(), EventQueue::Outcome::Drained);
            break;
          case Drain::Windows: {
            Cycle when = 0, sched = 0;
            while (eq_.peekTimes(when, sched))
                eq_.runWindow(when + 1 + window_rng_.below(200));
            break;
          }
          case Drain::Step:
            while (eq_.step()) {
            }
            break;
        }
        EXPECT_TRUE(eq_.empty());
        EXPECT_EQ(fired_.size(), static_cast<size_t>(kEvents));
        return fired_;
    }

  private:
    static constexpr size_t kPool = 8;
    static constexpr int kEvents = 4000;

    const void *
    hint()
    {
        const uint64_t kind = rng_.below(3);
        const size_t idx = rng_.below(kPool);
        if (!hinted_)
            return nullptr;
        if (kind == 0)
            return live_[idx].get();
        return kind == 1 ? nullptr : freed_[idx];
    }

    void
    add()
    {
        if (next_id_ == kEvents)
            return;
        const int id = next_id_++;
        const Cycle now = eq_.now();
        const uint64_t kind = rng_.below(4);
        const void *h0 = hint();
        const void *h1 = hint();
        auto fn = [this, id] { fire(id); };
        switch (kind) {
          case 0: // same cycle
            eq_.schedule(now, fn, h0, h1);
            break;
          case 1: // near: calendar bucket
            eq_.schedule(now + rng_.range(1, 64), fn, h0, h1);
            break;
          case 2: // beyond the 4096-cycle calendar window: far heap
            eq_.schedule(now + rng_.range(5000, 20000), fn, h0, h1);
            break;
          default: { // delivery stamped earlier than now; no hints
            const Cycle when = now + rng_.below(64);
            const Cycle sched = now - std::min<Cycle>(now, rng_.below(16));
            eq_.scheduleDelivered(when, sched, fn);
            break;
          }
        }
    }

    void
    fire(int id)
    {
        fired_.push_back({id, eq_.now(), eq_.currentSchedWhen()});
        const uint64_t kids = 1 + rng_.below(2);
        for (uint64_t k = 0; k < kids; ++k)
            add();
    }

    EventQueue eq_;
    Rng rng_;
    Rng window_rng_;
    bool hinted_;
    int next_id_ = 0;
    std::vector<Fired> fired_;
    std::vector<std::unique_ptr<uint64_t[]>> live_;
    std::vector<const void *> freed_;
};

TEST(EventQueueHints, HintsNeverChangeExecution)
{
    for (uint64_t seed : {1u, 7u, 42u}) {
        const std::vector<Fired> ref =
            HintScenario(seed, false).drain(Drain::Run);
        // The population must reach every path the hints ride on.
        EXPECT_GT(ref.back().now, Cycle{4096}) << "seed " << seed;
        for (Drain how : {Drain::Run, Drain::Windows, Drain::Step}) {
            for (bool hinted : {false, true}) {
                EXPECT_EQ(HintScenario(seed, hinted).drain(how), ref)
                    << "seed " << seed << " drain " << int(how)
                    << " hinted " << hinted;
            }
        }
    }
}

} // namespace
} // namespace mcmgpu
