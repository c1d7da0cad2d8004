/**
 * @file
 * google-benchmark suite of the simulator's hot primitives, one layer
 * at a time: callback boxing (SmallFn vs std::function), event-queue
 * schedule/drain in the near-future, fan-out and far-future cases, the
 * bandwidth-server calendar, cache probes (ready and hit-under-fill),
 * fills and the kernel-boundary flush, a fabric send, procedural trace
 * generation, one flight-recorder entry, and an end-to-end
 * simulated-warp-instructions-per-second figure. Companion to `tools/bench_baseline`, which measures the same
 * machinery end to end; this suite isolates the primitives so a
 * regression points at the component, not the system.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>

#include "common/bw_server.hh"
#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/smallfn.hh"
#include "common/units.hh"
#include "mem/cache.hh"
#include "mem/txn.hh"
#include "noc/ring.hh"
#include "obs/flight.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

using namespace mcmgpu;

namespace {

struct Sink
{
    uint64_t calls = 0;
    void bump(uint64_t d) { calls += d; }
};

void
BM_SmallFnConstructInvoke(benchmark::State &state)
{
    // The shape every warp continuation has: an owner pointer plus a
    // shared_ptr (24 bytes) — beyond std::function's inline budget,
    // comfortably inside SmallFn's.
    Sink sink;
    auto token = std::make_shared<uint64_t>(3);
    for (auto _ : state) {
        SmallFn fn([&sink, token] { sink.bump(*token); });
        fn();
        benchmark::DoNotOptimize(sink.calls);
    }
}
BENCHMARK(BM_SmallFnConstructInvoke);

void
BM_StdFunctionConstructInvoke(benchmark::State &state)
{
    // Reference point: the pre-calendar engine boxed every callback in
    // std::function, heap-allocating this very capture.
    Sink sink;
    auto token = std::make_shared<uint64_t>(3);
    for (auto _ : state) {
        std::function<void()> fn([&sink, token] { sink.bump(*token); });
        fn();
        benchmark::DoNotOptimize(sink.calls);
    }
}
BENCHMARK(BM_StdFunctionConstructInvoke);

void
BM_EventQueueNearFuture(benchmark::State &state)
{
    // Steady-state drain: every executed event schedules its successor
    // a few cycles out, the exact traffic of cache hits and link hops.
    EventQueue eq;
    uint64_t fired = 0;
    for (auto _ : state) {
        eq.schedule(eq.now() + 7, [&] { ++fired; });
        eq.step();
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueNearFuture);

void
BM_EventQueueFanOut(benchmark::State &state)
{
    // Burst of same-cycle events (a CTA wave becoming ready at once):
    // stresses bucket FIFO append plus tie-break ordering.
    const int kFan = static_cast<int>(state.range(0));
    EventQueue eq;
    uint64_t fired = 0;
    for (auto _ : state) {
        const Cycle t = eq.now() + 3;
        for (int i = 0; i < kFan; ++i)
            eq.schedule(t, [&] { ++fired; });
        while (eq.step()) {
        }
    }
    state.SetItemsProcessed(state.iterations() * kFan);
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueFanOut)->Arg(32)->Arg(256);

void
BM_EventQueueFarFuture(benchmark::State &state)
{
    // DRAM-latency-scale deferrals that cross the calendar window:
    // exercises the far heap and the migrate-on-advance path.
    EventQueue eq;
    uint64_t fired = 0;
    for (auto _ : state) {
        eq.schedule(eq.now() + 6000, [&] { ++fired; });
        eq.step();
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueFarFuture);

void
BM_BandwidthServerAcquire(benchmark::State &state)
{
    BandwidthServer server(768.0);
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(server.acquire(t, 128));
        t += 2;
    }
}
BENCHMARK(BM_BandwidthServerAcquire);

void
BM_BandwidthServerSaturated(benchmark::State &state)
{
    // Demand 4x the rate: the calendar runs far ahead of time.
    BandwidthServer server(32.0);
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(server.acquire(t, 128));
        t += 1;
    }
}
BENCHMARK(BM_BandwidthServerSaturated);

void
BM_CacheLookupHit(benchmark::State &state)
{
    // Random hits over 1 MB of resident lines. The argument is the
    // cycle the fills complete: 0 probes ready lines; a far-future
    // cycle probes hit-under-fill, which reads the way's ready field
    // instead of a hash lookup.
    CacheGeometry geo{4 * MiB, 128, 16, 30};
    Cache cache(geo, "bm.cache", true);
    for (Addr a = 0; a < 1 * MiB; a += 128)
        cache.fill(a, false, static_cast<Cycle>(state.range(0)));
    Rng rng(7);
    Cycle t = 1;
    for (auto _ : state) {
        const Addr a = (rng.next() % (1 * MiB)) & ~127ull;
        benchmark::DoNotOptimize(cache.lookup(a, false, t++));
    }
}
BENCHMARK(BM_CacheLookupHit)->ArgName("fill_cycle")->Arg(0)->Arg(1'000'000'000);

void
BM_CacheFillEvict(benchmark::State &state)
{
    CacheGeometry geo{256 * KiB, 128, 16, 30};
    Cache cache(geo, "bm.cache.evict", true);
    Addr a = 0;
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.fill(a, true, t));
        a += 128;
        ++t;
    }
}
BENCHMARK(BM_CacheFillEvict);

void
BM_CacheInvalidateAll(benchmark::State &state)
{
    // The software-coherence flush at every kernel boundary: epoch bump,
    // not a tag sweep.
    CacheGeometry geo{4 * MiB, 128, 16, 30};
    Cache cache(geo, "bm.hotpath.flush", true);
    for (Addr a = 0; a < 4 * MiB; a += 128)
        cache.fill(a, true, 0);
    for (auto _ : state) {
        cache.invalidateAll();
        cache.fill(0, false, 0);
    }
}
BENCHMARK(BM_CacheInvalidateAll);

void
BM_FabricSend(benchmark::State &state)
{
    // The fabric the basic MCM-GPU simulates on: the compiled 4-GPM ring.
    auto fabric = Fabric::create(configs::mcmBasic());
    Cycle t = 0;
    uint32_t dst = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fabric->send(0, dst, 144, t));
        dst = dst % 3 + 1;
        t += 1;
    }
}
BENCHMARK(BM_FabricSend);

void
BM_PatternTraceGeneration(benchmark::State &state)
{
    using namespace workloads;
    auto spec = std::make_shared<KernelSpec>();
    spec->name = "bm";
    spec->num_ctas = 1024;
    spec->warps_per_cta = 4;
    spec->items_per_warp = 1u << 20;
    spec->compute_per_item = 2;
    spec->arrays = {{0x1000'0000, 32 * MiB}, {0x3000'0000, 4 * MiB}};
    spec->accesses = {part(0), gather(1, 64), part(0, true)};
    PatternTrace trace(spec, 17, 2);
    WarpOp op;
    for (auto _ : state) {
        trace.next(op);
        benchmark::DoNotOptimize(op.addr);
    }
}
BENCHMARK(BM_PatternTraceGeneration);

void
BM_FlightRecordPhase(benchmark::State &state)
{
    // One txn phase transition into a ring that has already wrapped:
    // the steady state of a run under --obs-flight-recorder 4096.
    obs::FlightRecorder fr(4096);
    for (uint32_t i = 0; i < 2 * fr.capacity(); ++i)
        fr.phase(i, i, false, 0, 1, "l15", "fab_req");
    uint64_t id = 0;
    for (auto _ : state) {
        fr.phase(id, id, (id & 1) != 0, id & 3, (id >> 2) & 3,
                 wordOf(TxnPhase::L2Lookup),
                 wordOf(TxnPhase::DramRead));
        benchmark::ClobberMemory();
        ++id;
    }
    state.SetItemsProcessed(static_cast<int64_t>(id));
    state.SetLabel("items = flight records");
}
BENCHMARK(BM_FlightRecordPhase);

void
BM_EndToEndSimulation(benchmark::State &state)
{
    setQuietLogging(true);
    const workloads::Workload *w = workloads::findByAbbr("CFD");
    GpuConfig cfg = configs::mcmOptimized();
    uint64_t insts = 0;
    for (auto _ : state) {
        RunResult r = Simulator::run(cfg, *w);
        insts += r.warp_instructions;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(static_cast<int64_t>(insts));
    state.SetLabel("items = simulated warp instructions");
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
