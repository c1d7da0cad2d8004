/**
 * @file
 * The repository benchmark: host CPU time, scaled to a reference host,
 * and simulated warp-instructions per such CPU second on three
 * workloads, with per-layer costs from a separate traced run. See
 * README.md.
 *
 *   perfbench --workload chain-mem|staged-pdes|sweep-obs --seed N
 *             --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
 *             [--git-commit SHA]
 *   perfbench --self-test
 *
 * Human-readable lines go to stdout first; the last stdout line is one
 * JSON object {"correct", "attempted", "failed", "metrics"}. The exit
 * code is 0 only when every simulated result matched its pinned value.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "gpu/gpu_system.hh"
#include "gpu/runtime.hh"
#include "mem/cache.hh"
#include "obs/options.hh"
#include "sim/experiment.hh"
#include "support.hh"
#include "workloads/registry.hh"

#ifndef PERFBENCH_SOURCE_DIR
#define PERFBENCH_SOURCE_DIR "."
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace mcmgpu;
using namespace perfbench;
namespace fs = std::filesystem;
namespace wl = mcmgpu::workloads;

namespace {

// ---- workloads ----------------------------------------------------------------

enum class Kind { Chain, Staged, Sweep };

struct WorkloadSpec
{
    std::string name;
    Kind kind;
    std::vector<std::string> core;
    /** One held-out app is drawn per entry, from the rest of that
     *  paper category. */
    std::vector<wl::Category> held_out;
};

const std::vector<WorkloadSpec> &
specs()
{
    using C = wl::Category;
    static const std::vector<WorkloadSpec> all = {
        // The paper's headline comparison on the default chain driver:
        // mem cache probes, core issue and common event dispatch.
        {"chain-mem", Kind::Chain,
         {"Stream", "Lulesh2", "SSSP", "Kmeans", "MST"},
         {C::MemoryIntensive}},
        // The only workload on the staged MemPipeline, MSHRs and the
        // PDES window/barrier/sequencer.
        {"staged-pdes", Kind::Staged,
         {"Stream", "SSSP", "Lulesh2"},
         {C::MemoryIntensive}},
        // A figure-style sweep with every obs artifact on: the only
        // workload on exec and obs; compute-heavy apps keep mem light.
        {"sweep-obs", Kind::Sweep,
         {"SGEMM", "BlackScholes", "Nbody", "Backprop", "Histogram",
          "DCT8x8", "Reduction", "LavaMD", "Heartwall", "Dijkstra"},
         {C::ComputeIntensive, C::LimitedParallelism}},
    };
    return all;
}

const WorkloadSpec *
findSpec(const std::string &name)
{
    for (const WorkloadSpec &s : specs())
        if (s.name == name)
            return &s;
    return nullptr;
}

/** Generate the suite from its builders and keep @p apps, in order. */
std::vector<wl::Workload>
generate(const std::vector<std::string> &apps)
{
    std::vector<wl::Workload> all;
    wl::buildHpcSuite(all);
    wl::buildGraphSuite(all);
    wl::buildComputeSuite(all);
    wl::buildLimitedSuite(all);
    std::vector<wl::Workload> out;
    for (const std::string &a : apps)
        for (wl::Workload &w : all)
            if (w.abbr == a)
                out.push_back(std::move(w));
    return out;
}

// ---- machines -----------------------------------------------------------------

struct Machine
{
    GpuConfig cfg;
    std::string pin; //!< config name of its pinned rows
};

/** The machines of @p kind. @p threads is the PDES thread count; 1
 *  gives the staged-dist serial reference. */
std::vector<Machine>
machines(Kind kind, uint32_t threads)
{
    if (kind != Kind::Staged)
        return {{configs::mcmBasic(), "mcm-basic"},
                {configs::mcmOptimized(), "mcm-optimized"}};
    std::vector<Machine> out;
    for (GpuConfig cfg : {configs::mcmBasic(), configs::mcmMesh()}) {
        const std::string base = cfg.name;
        cfg.withMemModel(MemModel::Staged, 0);
        cfg.withSched(CtaSchedPolicy::DistributedBatch);
        // Cycles are identical at every thread count >= 2, so every
        // parallel run checks against the committed smt4 rows.
        std::string pin = base + "+staged-dist";
        if (threads > 1) {
            cfg.withSimThreads(threads);
            pin += "-smt4";
        }
        out.push_back({cfg, pin});
    }
    return out;
}

// ---- pinned results and checks -----------------------------------------------

struct Pin
{
    uint64_t cycles = 0;
    uint64_t events = 0;
    double wall_ms = 0.0; //!< host time when the row was recorded
};
using Pins = std::map<std::string, Pin>;

std::string
pinKey(const std::string &config, const std::string &app)
{
    return config + "|" + app;
}

/**
 * The pinned rows of the committed BENCH_hotpath.json, from its pair
 * lines `{"config": "...", "workload": "...", "cycles": N, "events": M,
 * ...}`.
 */
bool
loadPins(const std::string &path, Pins &out)
{
    std::ifstream in(path);
    std::string line;
    double cycles = 0.0, events = 0.0, wall_ms = 0.0;
    while (std::getline(in, line)) {
        const std::string cfg = firstString(line, "config");
        const std::string app = firstString(line, "workload");
        if (cfg.empty() || app.empty())
            continue;
        if (!firstNumber(line, "cycles", cycles) ||
            !firstNumber(line, "events", events) ||
            !firstNumber(line, "wall_ms", wall_ms))
            return false;
        out[pinKey(cfg, app)] = {static_cast<uint64_t>(cycles),
                                 static_cast<uint64_t>(events), wall_ms};
    }
    return !out.empty();
}

const char *const kPinnedPath =
    PERFBENCH_SOURCE_DIR "/../BENCH_hotpath.json";

/** Attempts and failures; each failure names what failed. */
struct Checker
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    record(const std::string &what, const std::string &problem)
    {
        ++attempted;
        if (!problem.empty()) {
            ++failed;
            failures.push_back(what + ": " + problem);
        }
    }
};

std::string
pinProblem(const Pins &pins, const std::string &config,
           const std::string &app, uint64_t cycles, uint64_t events)
{
    auto it = pins.find(pinKey(config, app));
    if (it == pins.end())
        return "no pinned row for " + config;
    if (it->second.cycles != cycles || it->second.events != events)
        return "cycles/events " + std::to_string(cycles) + "/" +
               std::to_string(events) + " != pinned " +
               std::to_string(it->second.cycles) + "/" +
               std::to_string(it->second.events);
    return "";
}

/** The app set of one run: the core apps plus the seeded held-out
 *  picks, or the one tiny app of smoke mode. An app's size, for the
 *  pick, is its pinned host time summed over the workload's machines
 *  (it predicts the app's cost better than its pinned events do). */
std::vector<std::string>
chooseApps(const WorkloadSpec &spec, uint64_t seed, bool smoke,
           const Pins &pins)
{
    if (smoke)
        return {"NN"};
    const std::vector<Machine> machs = machines(spec.kind, 2);
    auto size = [&](const std::string &app) {
        double ms = 0.0;
        for (const Machine &m : machs) {
            auto it = pins.find(pinKey(m.pin, app));
            if (it != pins.end())
                ms += it->second.wall_ms;
        }
        return ms;
    };
    std::vector<std::string> apps = spec.core;
    for (size_t k = 0; k < spec.held_out.size(); ++k)
        apps.push_back(
            pickHeldOut(spec.held_out[k], spec.core, seed, k, size)->abbr);
    return apps;
}

// ---- one (machine, app) pair through GpuSystem + Runtime ------------------------

struct PairRun
{
    double setup_s = 0.0;
    double construct_ms = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double ref_cpu_s = 0.0; //!< cpu_s scaled to the reference host
    uint64_t cycles = 0;
    uint64_t events = 0;
    uint64_t warp_insts = 0;
    std::vector<double> kernel_ms;
    bool parallel = false;
    Cycle lookahead = 0;
    // Read from the machine after the run (traced runs only).
    double l1 = 0.0, l15 = 0.0, l2 = 0.0;
    double cache_accesses = 0.0;
    double txns = 0.0;
    double mshr_waits = 0.0;
    uint64_t dram_bytes = 0;
    uint64_t inter_module_bytes = 0;
    double hottest = 0.0;
};

double
cacheAccesses(const std::string &stats_json)
{
    return sumNumbers(stats_json, "hits") +
           sumNumbers(stats_json, "hits_pending") +
           sumNumbers(stats_json, "misses");
}

PairRun
runPair(const Machine &m, const wl::Workload &w, const Pins &pins,
        Tracer &tr, Checker &chk, bool read_layers)
{
    PairRun r;
    const std::string what = m.cfg.name + " x " + w.abbr;
    Tracer::Scope pair_span(tr, "pair " + what, "bench");
    std::unique_ptr<GpuSystem> gpu;
    std::unique_ptr<Runtime> rt;
    const Stopwatch construct;
    {
        Tracer::Scope s(tr, "GpuSystem::GpuSystem", "gpu");
        gpu = std::make_unique<GpuSystem>(m.cfg);
    }
    {
        Tracer::Scope s(tr, "Runtime::Runtime", "gpu");
        rt = std::make_unique<Runtime>(*gpu);
    }
    r.setup_s = construct.cpu();
    r.construct_ms = r.setup_s * 1000.0;

    // Launches x iterations, the way Runtime::runAll drives them, so
    // each kernel is timed on its own.
    std::string problem;
    const Stopwatch run;
    try {
        bool stopped = false;
        for (const KernelLaunch &l : w.launches) {
            for (uint32_t it = 0; it < l.iterations && !stopped; ++it) {
                const auto k0 = Clock::now();
                {
                    Tracer::Scope s(tr, "Runtime::runKernel", "gpu");
                    rt->runKernel(l.kernel);
                }
                r.kernel_ms.push_back(secondsSince(k0) * 1000.0);
                stopped = rt->status() != RunStatus::Finished;
            }
        }
        if (stopped)
            problem = std::string("ended ") + toString(rt->status());
    } catch (const std::exception &e) {
        problem = std::string("threw: ") + e.what();
    }
    r.wall_s = run.wall();
    r.cpu_s = run.cpu();

    r.cycles = gpu->simEngine().now();
    r.events = gpu->eventsExecuted();
    r.warp_insts = gpu->totalWarpInstructions();
    r.parallel = gpu->simEngine().parallel();
    r.lookahead = gpu->simEngine().lookahead();
    if (problem.empty())
        problem = pinProblem(pins, m.pin, w.abbr, r.cycles, r.events);
    chk.record(what, problem);
    tr.counter("gpu.sim_cycles", static_cast<double>(r.cycles));
    tr.counter("common.events", static_cast<double>(r.events));
    tr.counter("core.warp_insts", static_cast<double>(r.warp_insts));

    if (read_layers) {
        std::ostringstream stats, fabric;
        {
            Tracer::Scope s(tr, "GpuSystem::statsJson", "gpu");
            gpu->statsJson(stats, w.abbr);
        }
        {
            Tracer::Scope s(tr, "GpuSystem::fabricJson", "noc");
            gpu->fabricJson(fabric, w.abbr);
        }
        const std::string st = stats.str();
        r.cache_accesses = cacheAccesses(st);
        r.txns = sumNumbers(st, "txn_launched");
        r.mshr_waits = sumNumbers(st, "txn_mshr_stalled");
        r.hottest = hottestLinkUtil(fabric.str());
        r.l1 = gpu->l1HitRate();
        r.l15 = gpu->l15HitRate();
        r.l2 = gpu->l2HitRate();
        r.dram_bytes = gpu->dramReadBytes() + gpu->dramWriteBytes();
        r.inter_module_bytes = gpu->interModuleBytes();
        tr.counter("mem.cache_accesses", r.cache_accesses);
        tr.counter("noc.inter_module_bytes",
                   static_cast<double>(r.inter_module_bytes));
    }
    return r;
}

// ---- passes -------------------------------------------------------------------

/** What one pass over a workload's full pair set measured. */
struct Pass
{
    double build_s = 0.0; //!< workload generation (and seeded pick)
    double build_cpu_s = 0.0; //!< the same, in CPU time
    double setup_s = 0.0; //!< build_cpu_s + machine construction, CPU
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double ref_cpu_s = 0.0; //!< cpu_s scaled to the reference host
    uint64_t warp_insts = 0;
    std::vector<PairRun> pairs;

    // Sweep passes only.
    double warm_s = 0.0;
    uint64_t jobs = 0;
    uint64_t retries = 0;
    double job_wall_ms = 0.0;
    uint64_t warm_jobs = 0;
    uint64_t warm_hits = 0;
    uint64_t artifact_bytes = 0;
};

struct RunContext
{
    const WorkloadSpec *spec = nullptr;
    uint64_t seed = 1;
    bool smoke = false;
    uint32_t threads = 1; //!< PDES threads or sweep workers
    HostProbe *probe = nullptr;
    std::string work_dir;
    Pins pins;
    Checker chk;
};

std::vector<wl::Workload>
generateTimed(RunContext &ctx, Tracer &tr, TraceTally *tally, Pass &p)
{
    const Stopwatch build;
    std::vector<wl::Workload> ws;
    {
        Tracer::Scope s(tr, "workloads::build", "workloads");
        ws = generate(chooseApps(*ctx.spec, ctx.seed, ctx.smoke, ctx.pins));
    }
    p.build_s = build.wall();
    p.build_cpu_s = build.cpu();
    if (tally)
        for (wl::Workload &w : ws)
            instrument(w, *tally);
    return ws;
}

Pass
pairPass(RunContext &ctx, const std::vector<Machine> &ms, Tracer &tr,
         TraceTally *tally, bool read_layers)
{
    Pass p;
    const std::vector<wl::Workload> ws = generateTimed(ctx, tr, tally, p);
    p.setup_s = p.build_cpu_s;
    // Staged pairs keep the PDES threads busy; chain pairs run on this
    // thread alone.
    const unsigned busy = ms.front().cfg.sim_threads > 1 ? ctx.threads : 1;
    double before = ctx.probe->sample(busy);
    uint64_t pair_id = 0;
    for (const Machine &m : ms) {
        for (const wl::Workload &w : ws) {
            tr.setPair(++pair_id);
            PairRun r = runPair(m, w, ctx.pins, tr, ctx.chk, read_layers);
            const double after = ctx.probe->sample(busy);
            r.ref_cpu_s = HostProbe::scale(r.cpu_s, before, after);
            before = after;
            p.setup_s += r.setup_s;
            p.wall_s += r.wall_s;
            p.cpu_s += r.cpu_s;
            p.ref_cpu_s += r.ref_cpu_s;
            p.warp_insts += r.warp_insts;
            p.pairs.push_back(std::move(r));
        }
    }
    tr.setPair(0);
    return p;
}

/** CPU milliseconds spent constructing a GpuSystem and its Runtime for
 *  each of @p apps apps on every machine, in pair order (destruction is
 *  not timed). */
std::vector<double>
constructAll(const std::vector<Machine> &ms, size_t apps)
{
    std::vector<double> ms_per_pair;
    for (const Machine &m : ms) {
        for (size_t i = 0; i < apps; ++i) {
            const Stopwatch sw;
            GpuSystem gpu(m.cfg);
            Runtime rt(gpu);
            ms_per_pair.push_back(sw.cpu() * 1000.0);
        }
    }
    return ms_per_pair;
}

double
sumSeconds(const std::vector<double> &ms)
{
    double s = 0.0;
    for (double v : ms)
        s += v / 1000.0;
    return s;
}

enum class ObsMode { Off, Artifacts, Full };

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
sameResult(const RunResult &a, const RunResult &b)
{
    return a.workload == b.workload && a.config == b.config &&
           a.status == b.status &&
           a.stall_diagnostic == b.stall_diagnostic &&
           a.cycles == b.cycles &&
           a.warp_instructions == b.warp_instructions &&
           a.kernels == b.kernels &&
           a.inter_module_bytes == b.inter_module_bytes &&
           a.dram_read_bytes == b.dram_read_bytes &&
           a.dram_write_bytes == b.dram_write_bytes &&
           a.l1_hit_rate == b.l1_hit_rate &&
           a.l15_hit_rate == b.l15_hit_rate &&
           a.l2_hit_rate == b.l2_hit_rate &&
           a.energy_chip_j == b.energy_chip_j &&
           a.energy_link_j == b.energy_link_j &&
           a.link_domain_bytes == b.link_domain_bytes;
}

/**
 * One figure-style sweep: a cold experiment::runMatrix into a fresh
 * result cache. In Full mode (the workload as defined) every result and
 * artifact is checked and a warm pass re-reads the cache; the other
 * modes only time the cold pass, for the obs overhead ratios.
 */
Pass
sweepPass(RunContext &ctx, const std::vector<Machine> &ms, Tracer &tr,
          TraceTally *tally, ObsMode mode, int index)
{
    const bool check = mode == ObsMode::Full;
    Pass p;
    std::vector<wl::Workload> ws = generateTimed(ctx, tr, tally, p);
    std::vector<const wl::Workload *> ptrs;
    for (const wl::Workload &w : ws)
        ptrs.push_back(&w);
    std::vector<GpuConfig> cfgs;
    for (const Machine &m : ms)
        cfgs.push_back(m.cfg);

    // The sweep constructs its machines inside runMatrix's jobs; set-up
    // is measured on the same pairs by constructing each one here.
    const std::vector<double> construct_ms = constructAll(ms, ws.size());
    p.setup_s = p.build_cpu_s + sumSeconds(construct_ms);

    const fs::path dir = fs::path(ctx.work_dir) /
                         ("sweep-" + std::to_string(index));
    const fs::path cache_dir = dir / "cache";
    const fs::path obs_dir = dir / "obs";
    fs::remove_all(dir);
    fs::create_directories(obs_dir);
    experiment::setCacheDir(cache_dir.string());
    experiment::clearMemo();
    obs::Options o;
    if (mode != ObsMode::Off) {
        o.sample_period = 10000;
        o.stats_json = true;
        o.trace_json = true;
    }
    if (mode == ObsMode::Full)
        o.flight_recorder = 4096;
    o.out_dir = obs_dir.string();
    obs::setOptions(o);

    const experiment::SweepSummary s0 = experiment::sweepSummary();
    const double before = ctx.probe->sample(ctx.threads);
    const Stopwatch sweep;
    std::vector<std::vector<RunResult>> cold;
    {
        Tracer::Scope s(tr, "experiment::runMatrix (cold)", "exec");
        cold = experiment::runMatrix(cfgs, ptrs);
    }
    p.wall_s = sweep.wall();
    p.cpu_s = sweep.cpu();
    p.ref_cpu_s = HostProbe::scale(p.cpu_s, before,
                                   ctx.probe->sample(ctx.threads));
    const experiment::SweepSummary s1 = experiment::sweepSummary();
    p.jobs = s1.graph.jobs - s0.graph.jobs;
    p.retries = s1.graph.retries - s0.graph.retries;
    p.job_wall_ms = s1.graph.wall_ms - s0.graph.wall_ms;

    for (size_t c = 0; c < cfgs.size(); ++c) {
        for (size_t i = 0; i < ws.size(); ++i) {
            const RunResult &r = cold[c][i];
            p.warp_insts += r.warp_instructions;
            PairRun pr;
            pr.construct_ms = construct_ms[c * ws.size() + i];
            pr.cycles = r.cycles;
            pr.warp_insts = r.warp_instructions;
            pr.l1 = r.l1_hit_rate;
            pr.l15 = r.l15_hit_rate;
            pr.l2 = r.l2_hit_rate;
            pr.dram_bytes = r.dram_read_bytes + r.dram_write_bytes;
            pr.inter_module_bytes = r.inter_module_bytes;
            const std::string what = ms[c].cfg.name + " x " + r.workload;
            std::string problem;
            if (!r.finished())
                problem = std::string("ended ") + toString(r.status);
            if (mode != ObsMode::Off) {
                const std::string stem =
                    (obs_dir / (ms[c].cfg.name + "__" + r.workload))
                        .string();
                const std::string st = readFile(stem + ".stats.json");
                double events = 0.0;
                if (!firstNumber(st, "events", events) && problem.empty())
                    problem = "stats.json has no events";
                pr.events = static_cast<uint64_t>(events);
                pr.cache_accesses = cacheAccesses(st);
                pr.txns = sumNumbers(st, "txn_launched");
                pr.mshr_waits = sumNumbers(st, "txn_mshr_stalled");
                pr.hottest = hottestLinkUtil(readFile(stem +
                                                      ".fabric.json"));
                for (const char *a : {".stats.json", ".timeline.json",
                                      ".trace.json", ".fabric.json"})
                    if (!fs::exists(stem + a) && problem.empty())
                        problem = std::string("missing artifact ") + a;
            }
            if (check) {
                if (problem.empty())
                    problem = pinProblem(ctx.pins, ms[c].pin, r.workload,
                                         r.cycles, pr.events);
                ctx.chk.record(what, problem);
            }
            p.pairs.push_back(std::move(pr));
        }
    }

    // Every artifact the sweep wrote must be well-formed JSON.
    for (const fs::directory_entry &e : fs::directory_iterator(obs_dir)) {
        const std::string text = readFile(e.path());
        p.artifact_bytes += text.size();
        if (check) {
            const json::ValidationResult v = json::validate(text);
            ctx.chk.record(e.path().filename().string(),
                           v ? "" : "malformed JSON at byte " +
                                        std::to_string(v.offset) + ": " +
                                        v.error);
        }
    }

    if (check) {
        experiment::clearMemo();
        const auto w0 = Clock::now();
        std::vector<std::vector<RunResult>> warm;
        {
            Tracer::Scope s(tr, "experiment::runMatrix (warm)", "exec");
            warm = experiment::runMatrix(cfgs, ptrs);
        }
        p.warm_s = secondsSince(w0);
        const experiment::SweepSummary s2 = experiment::sweepSummary();
        p.warm_jobs = s2.graph.jobs - s1.graph.jobs;
        p.warm_hits = s2.graph.cache_hits - s1.graph.cache_hits;
        ctx.chk.record("warm cache", p.warm_hits == p.warm_jobs
                                         ? ""
                                         : "warm pass missed the cache");
        for (size_t c = 0; c < cfgs.size(); ++c)
            for (size_t i = 0; i < ws.size(); ++i)
                ctx.chk.record("warm " + ms[c].cfg.name + " x " +
                                   ws[i].abbr,
                               sameResult(cold[c][i], warm[c][i])
                                   ? ""
                                   : "differs from the cold pass");
    }
    fs::remove_all(dir);
    return p;
}

Pass
runPass(RunContext &ctx, const std::vector<Machine> &ms, Tracer &tr,
        TraceTally *tally, bool read_layers, int index)
{
    if (ctx.spec->kind == Kind::Sweep)
        return sweepPass(ctx, ms, tr, tally, ObsMode::Full, index);
    return pairPass(ctx, ms, tr, tally, read_layers);
}

// ---- per-layer: cache probe replay ---------------------------------------------

/** ns per access of the captured reference stream replayed through a
 *  standalone Cache with the machine's L1 geometry (lookup, plus fill
 *  on a miss). */
double
cacheProbeNs(const GpuConfig &cfg, const std::vector<MemRef> &refs)
{
    if (refs.empty())
        return 0.0;
    uint64_t accesses = 0;
    const auto t0 = Clock::now();
    Cycle now = 0;
    do {
        Cache l1(cfg.l1, "replay.l1", /*write_back=*/false);
        for (const MemRef &r : refs) {
            ++now;
            if (l1.lookup(r.addr, r.is_store, now).outcome ==
                CacheOutcome::Miss)
                l1.fill(r.addr, r.is_store, now);
        }
        accesses += refs.size();
    } while (secondsSince(t0) < 0.5);
    return secondsSince(t0) * 1e9 / static_cast<double>(accesses);
}

// ---- output -------------------------------------------------------------------

struct Metric
{
    Metric(std::string n, std::string u, double v, bool avail = true,
           std::string why = "")
        : name(std::move(n)), unit(std::move(u)), value(v),
          available(avail), note(std::move(why))
    {}

    std::string name;
    std::string unit;
    double value;
    bool available; //!< false: the layer does not run in this workload
    std::string note;
};

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(const std::vector<double> &v)
{
    return summarize(v).median;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool self_test = false;
    std::string work_dir = ".bench_work";
    std::string git_commit = "unknown";
};

std::string
contextJson(const Args &a, const RunContext &ctx,
            const std::vector<std::string> &apps)
{
    std::ostringstream os;
    os << "{\"workload\": " << json::quoted(a.workload)
       << ", \"seed\": " << a.seed << ", \"apps\": [";
    for (size_t i = 0; i < apps.size(); ++i)
        os << (i ? ", " : "") << json::quoted(apps[i]);
    os << "], \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": " << json::quoted("g++ " __VERSION__)
       << ", \"build_type\": " << json::quoted(PERFBENCH_BUILD_TYPE)
       << ", \"git_commit\": " << json::quoted(a.git_commit)
       << ", \"sim_threads\": "
       << (ctx.spec->kind == Kind::Staged ? ctx.threads : 1)
       << ", \"sweep_jobs\": "
       << (ctx.spec->kind == Kind::Sweep ? ctx.threads : 0)
       << ", \"trace\": " << (a.trace ? 1 : 0)
       << ", \"smoke\": " << (a.smoke ? 1 : 0) << "}";
    return os.str();
}

/**
 * End-to-end metrics from the untraced passes and the set-up rounds
 * @p setup (already scaled). The time metrics are process CPU time
 * scaled to the reference host by the HostProbe samples around each
 * measurement. Where pairs run one at a time, ref_cpu_s is the sum over
 * pairs of each pair's median across passes, so a burst of host noise
 * during one pair of one pass does not carry into it; a sweep runs its
 * pairs concurrently, so there it is the median cold sweep.
 */
std::vector<Metric>
endToEnd(const std::vector<Pass> &passes, const std::vector<double> &setup,
         const HostProbe &probe)
{
    const std::vector<PairRun> &first = passes.front().pairs;
    const bool per_pair = !first.empty() && first.front().cpu_s > 0.0;
    auto total = [&](double Pass::*whole, double PairRun::*part) {
        double sum = 0.0;
        if (per_pair) {
            for (size_t i = 0; i < first.size(); ++i) {
                std::vector<double> pair;
                for (const Pass &p : passes)
                    pair.push_back(p.pairs[i].*part);
                sum += median(pair);
            }
        } else {
            std::vector<double> sweeps;
            for (const Pass &p : passes)
                sweeps.push_back(p.*whole);
            sum = median(sweeps);
        }
        return sum;
    };
    const double ref = total(&Pass::ref_cpu_s, &PairRun::ref_cpu_s);
    const std::string n = std::to_string(passes.size()) + " pass" +
                          (passes.size() == 1 ? "" : "es");
    const std::string how = per_pair ? "sum of per-pair medians over " + n
                                     : "median cold sweep of " + n;
    // The unscaled times, for context: on a shared host they follow the
    // neighbours' load as much as the simulator.
    std::cout << "info cpu_s "
              << json::number(total(&Pass::cpu_s, &PairRun::cpu_s))
              << " s, wall_s "
              << json::number(total(&Pass::wall_s, &PairRun::wall_s))
              << " s (unscaled, " << how << "); host probe median "
              << json::number(median(probe.samples())) << " s of "
              << probe.samples().size() << "\n";
    return {{"ref_cpu_s", "s", ref, true, how},
            {"warp_insts_per_ref_cpu_s", "warp-inst/s",
             static_cast<double>(passes.front().warp_insts) / ref, true,
             "warp insts of a pass over ref_cpu_s"},
            {"setup_s", "s", median(setup), true,
             "reference-host CPU time, median of " +
                 std::to_string(setup.size()) + " rounds"},
            {"peak_rss_mb", "MB",
             peakRssMb() - static_cast<double>(probe.bytes()) / 1048576.0,
             true,
             "whole process less the host probe's memory"}};
}

/** Per-layer metrics from the traced passes (and the run's untraced
 *  reference pass @p ref). */
std::vector<Metric>
perLayer(const RunContext &ctx, const std::vector<Pass> &traced,
         const Pass &ref, const TraceTally &tally, double probe_ns,
         double pdes_serial_s, double obs_off_s, double obs_art_s)
{
    const Kind kind = ctx.spec->kind;
    const bool pairs_direct = kind != Kind::Sweep;
    const double np = static_cast<double>(traced.size());

    std::vector<double> build_ms, construct_ms, kernel_ms, wall, lookahead;
    double cycles = 0, warp = 0, events = 0, accesses = 0, dram = 0;
    double txns = 0, mshr = 0, imb = 0, hottest = 0, l1 = 0, l15 = 0;
    double l2 = 0, parallel = 0, npairs = 0;
    for (const Pass &p : traced) {
        build_ms.push_back(p.build_s * 1000.0);
        wall.push_back(p.wall_s);
        for (const PairRun &r : p.pairs) {
            construct_ms.push_back(r.construct_ms);
            kernel_ms.insert(kernel_ms.end(), r.kernel_ms.begin(),
                             r.kernel_ms.end());
            cycles += r.cycles;
            warp += r.warp_insts;
            events += r.events;
            accesses += r.cache_accesses;
            dram += r.dram_bytes;
            txns += r.txns;
            mshr += r.mshr_waits;
            imb += r.inter_module_bytes;
            hottest = std::max(hottest, r.hottest);
            l1 += r.l1;
            l15 += r.l15;
            l2 += r.l2;
            npairs += 1;
            if (r.parallel) {
                parallel += 1;
                lookahead.push_back(static_cast<double>(r.lookahead));
            }
        }
    }
    const Summary ks = summarize(kernel_ms);
    const std::string kn = "n=" + std::to_string(ks.n) +
                           (ks.p90Resolved() ? "" : ", p90 has < 10 "
                                                    "samples beyond it");
    const double ops = static_cast<double>(tally.ops.load());
    const double ref_events = [&] {
        double e = 0;
        for (const PairRun &r : ref.pairs)
            e += r.events;
        return e;
    }();
    const double traced_wall = median(wall);
    const bool sweep = kind == Kind::Sweep;
    const bool staged = kind == Kind::Staged;
    const Pass &last = traced.back();

    return {
        {"workloads.build_ms", "ms", median(build_ms)},
        {"workloads.trace_ops", "count", ops / np},
        {"workloads.trace_ns_per_op", "ns",
         ops > 0 ? static_cast<double>(tally.ns.load()) / ops : 0.0},
        {"gpu.construct_ms", "ms/pair", median(construct_ms)},
        {"gpu.kernel_ms_p50", "ms", ks.median, pairs_direct, kn},
        {"gpu.kernel_ms_p90", "ms", ks.p90, pairs_direct, kn},
        {"gpu.kernels", "count", static_cast<double>(ks.n) / np,
         pairs_direct},
        {"gpu.sim_cycles", "cycles", cycles / np},
        {"core.sim_ipc", "inst/cycle", cycles > 0 ? warp / cycles : 0.0},
        {"core.warp_insts", "count", warp / np},
        {"common.events", "count", events / np},
        {"common.events_per_warp_inst", "ratio",
         warp > 0 ? events / warp : 0.0},
        {"common.host_ns_per_event", "ns",
         ref_events > 0 ? ref.ref_cpu_s * 1e9 / ref_events : 0.0, true,
         "reference-host CPU time of the untraced reference pass"},
        {"common.parallel_share", "fraction",
         npairs > 0 ? parallel / npairs : 0.0, !sweep},
        {"common.lookahead_cycles", "cycles", median(lookahead),
         !lookahead.empty()},
        {"common.pdes_speedup", "x",
         staged && ref.wall_s > 0 ? pdes_serial_s / ref.wall_s : 0.0,
         pdes_serial_s > 0, "staged-dist serial / " + std::to_string(ctx.threads) +
                     " threads"},
        {"mem.l1_hit_rate", "ratio", npairs > 0 ? l1 / npairs : 0.0, true,
         "mean over pairs"},
        {"mem.l15_hit_rate", "ratio", npairs > 0 ? l15 / npairs : 0.0, true,
         "mean over pairs"},
        {"mem.l2_hit_rate", "ratio", npairs > 0 ? l2 / npairs : 0.0, true,
         "mean over pairs"},
        {"mem.cache_accesses", "count", accesses / np},
        {"mem.dram_bytes", "B", dram / np},
        {"mem.cache_probe_ns", "ns/access", probe_ns, probe_ns > 0},
        {"mem.txns", "count", txns / np, staged},
        {"mem.mshr_waits", "count", mshr / np, staged},
        {"noc.inter_module_bytes", "B", imb / np},
        {"noc.hottest_link_util", "ratio", hottest},
        {"obs.overhead_x", "x",
         sweep && obs_off_s > 0 ? obs_art_s / obs_off_s : 0.0, obs_off_s > 0,
         "artifacts / obs off"},
        {"obs.flight_overhead_x", "x",
         sweep && obs_off_s > 0 ? ref.wall_s / obs_off_s : 0.0,
         obs_off_s > 0, "artifacts + flight recorder / obs off"},
        {"obs.artifact_bytes", "B", static_cast<double>(ref.artifact_bytes),
         sweep},
        {"exec.jobs", "count", static_cast<double>(last.jobs), sweep},
        {"exec.pool_util", "fraction",
         sweep && last.wall_s > 0
             ? last.job_wall_ms / 1000.0 /
                   (last.wall_s * static_cast<double>(ctx.threads))
             : 0.0,
         sweep},
        {"exec.retries", "count", static_cast<double>(last.retries), sweep},
        {"exec.cache_hit_ratio", "ratio",
         last.warm_jobs ? static_cast<double>(last.warm_hits) /
                              static_cast<double>(last.warm_jobs)
                        : 0.0,
         sweep},
        {"exec.warm_ms_per_job", "ms",
         last.warm_jobs ? last.warm_s * 1000.0 /
                              static_cast<double>(last.warm_jobs)
                        : 0.0,
         sweep},
        {"bench.trace_overhead_x", "x",
         ref.wall_s > 0 ? traced_wall / ref.wall_s : 0.0},
    };
}

void
printResult(const std::vector<Metric> &metrics, const Checker &chk)
{
    for (const std::string &f : chk.failures)
        std::cout << "FAIL " << f << "\n";
    std::cout << "metric fail_ratio "
              << json::number(chk.attempted
                                  ? static_cast<double>(chk.failed) /
                                        static_cast<double>(chk.attempted)
                                  : 0.0)
              << " fraction (" << chk.failed << " of " << chk.attempted
              << " checks)\n";
    for (const Metric &m : metrics) {
        std::cout << "metric " << m.name << " ";
        if (m.available)
            std::cout << json::number(m.value) << " " << m.unit;
        else
            std::cout << "n/a";
        if (!m.note.empty() && m.available)
            std::cout << " (" << m.note << ")";
        std::cout << "\n";
    }
    // A layer that does not run in this workload reports 0 in JSON.
    std::cout << "{\"correct\": " << (chk.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << chk.attempted
              << ", \"failed\": " << chk.failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::cout << (i ? ", " : "") << json::quoted(m.name)
                  << ": {\"value\": "
                  << json::number(m.available ? m.value : 0.0)
                  << ", \"unit\": " << json::quoted(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
}

// ---- self-test ----------------------------------------------------------------

int
selfTest()
{
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        if (!ok) {
            ++failures;
            std::cout << "self-test FAIL: " << what << "\n";
        }
    };

    Pins pins;
    expect(loadPins(kPinnedPath, pins), "BENCH_hotpath.json loads");

    // Seeded pick: deterministic, category-preserving, never a core
    // app, among the candidates nearest the median size, and the seed
    // actually varies it. Of the 15 memory-intensive candidates below,
    // six are small, two sit at the median and seven are large.
    static_assert(kHeldOutPool == 2, "the test below sizes two middles");
    const std::vector<std::string> few = {"Stream", "SSSP"};
    const std::set<std::string> middle = {"CFD", "MiniAMR"};
    const std::set<std::string> small = {"AMG", "NN-Conv", "Kmeans", "BFS",
                                         "MST", "CoMD"};
    auto size = [&](const std::string &app) {
        return middle.count(app) ? 10.0 : small.count(app) ? 1.0 : 100.0;
    };
    std::set<std::string> drawn;
    for (uint64_t seed = 0; seed < 50; ++seed) {
        const wl::Workload *a = pickHeldOut(wl::Category::MemoryIntensive,
                                            few, seed, 0, size);
        expect(a && middle.count(a->abbr), "pick outside the middle");
        if (a)
            drawn.insert(a->abbr);
    }
    expect(drawn == middle, "pick never draws some middle apps");
    for (const WorkloadSpec &s : specs()) {
        for (size_t k = 0; k < s.held_out.size(); ++k) {
            std::map<std::string, int> seen;
            for (uint64_t seed = 0; seed < 200; ++seed) {
                const wl::Workload *a =
                    pickHeldOut(s.held_out[k], s.core, seed, k, size);
                const wl::Workload *b =
                    pickHeldOut(s.held_out[k], s.core, seed, k, size);
                expect(a && a == b, s.name + ": pick not deterministic");
                if (!a)
                    continue;
                expect(a->category == s.held_out[k],
                       s.name + ": pick " + a->abbr + " left its category");
                expect(std::find(s.core.begin(), s.core.end(), a->abbr) ==
                           s.core.end(),
                       s.name + ": pick " + a->abbr + " is a core app");
                ++seen[a->abbr];
            }
            expect(seen.size() > 1, s.name + ": seed never changes pick");
        }
        std::set<std::string> picked;
        for (uint64_t seed = 0; seed < 50; ++seed)
            picked.insert(chooseApps(s, seed, false, pins).back());
        expect(picked.size() > 1, s.name + ": pinned sizes allow one pick");
        expect(chooseApps(s, 7, false, pins) ==
                   chooseApps(s, 7, false, pins),
               s.name + ": app set not deterministic");
        expect(chooseApps(s, 7, false, pins).size() ==
                   s.core.size() + s.held_out.size(),
               s.name + ": app set size");
    }

    // The host probe measures something, and scaling by a probe that
    // reads the reference time is the identity.
    {
        HostProbe probe(2);
        expect(probe.sample(1) > 0.0 && probe.sample(2) > 0.0,
               "host probe sample");
        expect(HostProbe::scale(2.0, HostProbe::kReferenceS,
                                HostProbe::kReferenceS) == 2.0,
               "host probe scale");
    }

    // Order statistics report their sample count.
    expect(summarize({}).n == 0 && summarize({}).median == 0.0,
           "empty summary");
    expect(summarize({5.0}).n == 1 && summarize({5.0}).median == 5.0 &&
               summarize({5.0}).p90 == 5.0,
           "single-sample summary");
    const Summary four = summarize({4.0, 1.0, 3.0, 2.0});
    expect(four.n == 4 && four.median == 2.5, "median of four");
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    const Summary h = summarize(hundred);
    expect(h.n == 100 && h.median == 50.5 && h.p90 > 90.0 && h.p90 < 90.2,
           "percentiles of 1..100");
    expect(h.p90Resolved() && !summarize({1, 2, 3}).p90Resolved(),
           "p90 resolution needs ten samples beyond it");

    // JSON text scans.
    const std::string doc = "{\"a\": {\"hits\": 3, \"misses\": 4}, "
                            "\"b\": {\"hits\": 5}, \"events\": 12, "
                            "\"hottest_link\": {\"name\": \"x\", "
                            "\"utilization\": 0.25}}";
    double v = 0;
    expect(firstNumber(doc, "events", v) && v == 12, "firstNumber");
    expect(firstString(doc, "name") == "x" &&
               firstString(doc, "absent").empty(),
           "firstString");
    expect(!firstNumber(doc, "absent", v), "firstNumber absent key");
    expect(sumNumbers(doc, "hits") == 8, "sumNumbers");
    expect(hottestLinkUtil(doc) == 0.25, "hottestLinkUtil");

    // Tracer: nesting, self time, and a well-formed Chrome trace.
    {
        Tracer t(true);
        t.setPair(1);
        {
            Tracer::Scope outer(t, "outer", "bench");
            Tracer::Scope inner(t, "inner", "gpu");
            t.counter("c", 1);
        }
        const auto st = t.selfTimes();
        expect(st.size() == 2, "tracer span count");
        for (const auto &s : st)
            expect(s.count == 1 && s.self_ms <= s.total_ms + 1e-9,
                   "tracer self time");
        expect(static_cast<bool>(json::validate(t.chromeJson("{}"))),
               "tracer Chrome JSON");
        Tracer off(false);
        expect(off.begin("x", "y") == 0 && off.selfTimes().empty(),
               "disabled tracer records nothing");
    }

    // Every app a workload can run has a pinned row on its machines.
    for (const WorkloadSpec &s : specs()) {
        std::vector<std::string> cfgs;
        for (const Machine &m : machines(s.kind, 4))
            cfgs.push_back(m.pin);
        if (s.kind == Kind::Staged)
            for (const Machine &m : machines(s.kind, 1))
                cfgs.push_back(m.pin);
        for (const std::string &c : cfgs)
            for (const wl::Workload &w : wl::allWorkloads())
                expect(pins.count(pinKey(c, w.abbr)),
                       "no pinned row " + c + " x " + w.abbr);
    }

    std::cout << (failures ? "self-test failed" : "self-test ok") << "\n";
    return failures ? 1 : 0;
}

// ---- main ---------------------------------------------------------------------

void
usage()
{
    std::cerr << "usage: perfbench --workload chain-mem|staged-pdes|"
                 "sweep-obs --seed N --seconds S --trace 0|1\n"
                 "                 [--smoke] [--work-dir DIR] "
                 "[--git-commit SHA]\n"
                 "       perfbench --self-test\n";
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        try {
            if (f == "--workload")
                a.workload = value();
            else if (f == "--seed")
                a.seed = std::stoull(value());
            else if (f == "--seconds")
                a.seconds = std::stod(value());
            else if (f == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (f == "--smoke")
                a.smoke = true;
            else if (f == "--self-test")
                a.self_test = true;
            else if (f == "--work-dir")
                a.work_dir = value();
            else if (f == "--git-commit")
                a.git_commit = value();
            else
                return false;
        } catch (const std::exception &) {
            std::cerr << "bad value for " << f << "\n";
            return false;
        }
    }
    return a.self_test || !a.workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 2;
    }
    if (args.self_test)
        return selfTest();

    RunContext ctx;
    ctx.spec = findSpec(args.workload);
    if (!ctx.spec) {
        std::cerr << "unknown workload " << args.workload << "\n";
        return 2;
    }
    ctx.seed = args.seed;
    ctx.smoke = args.smoke;
    ctx.threads = std::min(4u, std::thread::hardware_concurrency());
    if (ctx.spec->kind == Kind::Staged && ctx.threads < 2) {
        std::cerr << "staged-pdes needs at least 2 hardware threads\n";
        return 2;
    }
    if (!loadPins(kPinnedPath, ctx.pins)) {
        std::cerr << "cannot read pinned rows from " << kPinnedPath << "\n";
        return 2;
    }
    ctx.work_dir = (fs::path(args.work_dir) /
                    (args.workload + "-" + std::to_string(getpid())))
                       .string();
    fs::create_directories(ctx.work_dir);

    experiment::setProgress(false);
    experiment::setRunsJsonPath("");
    experiment::setJobTimeout(0.0);
    experiment::setJobs(ctx.spec->kind == Kind::Sweep ? ctx.threads : 1);

    const std::vector<std::string> apps =
        chooseApps(*ctx.spec, ctx.seed, ctx.smoke, ctx.pins);
    const std::string context = contextJson(args, ctx, apps);
    std::cout << "perfbench " << args.workload << " seed " << args.seed
              << (args.trace ? " (traced)" : "") << "\n"
              << "context " << context << "\n";

    const std::vector<Machine> ms =
        machines(ctx.spec->kind, ctx.spec->kind == Kind::Staged
                                     ? ctx.threads : 1);
    Tracer off(false);
    HostProbe probe(ctx.threads);
    ctx.probe = &probe;

    // Warm-up: one untimed pass of the tiny app through the workload's
    // own path, so code, threads and the allocator are warm before the
    // first measured pass.
    int index = 0;
    if (!ctx.smoke) {
        ctx.smoke = true;
        runPass(ctx, ms, off, nullptr, false, index++);
        ctx.smoke = false;
    }

    // Passes run until --seconds have elapsed (at least one), and no
    // new pass starts once the next one could overrun the run budget,
    // which leaves a margin below the 180 s a run may take.
    const double budget_s = 150.0;
    const size_t kSetupRounds = 41;
    const size_t kSetupBlock = 8;
    const auto start = Clock::now();
    auto keepGoing = [&](const std::vector<Pass> &done, double since_s) {
        if (done.empty())
            return true;
        const double last = done.back().wall_s + done.back().setup_s +
                            done.back().warm_s;
        return since_s < args.seconds &&
               secondsSince(start) + 1.5 * last < budget_s;
    };

    std::vector<Metric> metrics;
    if (!args.trace) {
        // Set-up costs milliseconds, so it is measured apart from the
        // passes, in rounds of generation plus construction: at least
        // kSetupRounds rounds and one second, all from the same state of
        // the heap, right after the warm-up. A host probe brackets each
        // block of kSetupBlock rounds.
        std::vector<double> setup;
        const auto s0 = Clock::now();
        double before = probe.sample(1);
        while (setup.size() < kSetupRounds || secondsSince(s0) < 1.0) {
            std::vector<double> block;
            for (size_t i = 0; i < kSetupBlock; ++i) {
                Pass round;
                const size_t apps =
                    generateTimed(ctx, off, nullptr, round).size();
                block.push_back(round.build_cpu_s +
                                sumSeconds(constructAll(ms, apps)));
            }
            const double after = probe.sample(1);
            for (double t : block)
                setup.push_back(HostProbe::scale(t, before, after));
            before = after;
        }
        std::vector<Pass> passes;
        const auto t0 = Clock::now();
        while (keepGoing(passes, secondsSince(t0))) {
            passes.push_back(runPass(ctx, ms, off, nullptr, false, index++));
            const Pass &p = passes.back();
            std::cout << "pass " << passes.size() << " wall_s "
                      << json::number(p.wall_s) << " cpu_s "
                      << json::number(p.cpu_s) << " ref_cpu_s "
                      << json::number(p.ref_cpu_s);
            if (ctx.spec->kind != Kind::Sweep) {
                std::cout << " pairs";
                for (const PairRun &r : p.pairs)
                    std::cout << " " << json::number(r.ref_cpu_s);
            }
            std::cout << "\n";
        }
        metrics = endToEnd(passes, setup, probe);
    } else {
        const Pass ref = runPass(ctx, ms, off, nullptr, false, index++);
        Tracer tr(true);
        TraceTally tally;
        tally.reset(ctx.smoke ? 100000 : 2000000);
        std::vector<Pass> traced;
        const auto t0 = Clock::now();
        while (keepGoing(traced, secondsSince(t0))) {
            Tracer::Scope s(tr, "pass", "bench");
            traced.push_back(runPass(ctx, ms, tr, &tally, true, index++));
        }

        // The extra comparison passes are skipped (their metrics print
        // n/a) when a slow host leaves no room for them in the budget.
        const bool room =
            secondsSince(start) + 2.0 * ref.wall_s < budget_s;
        double pdes_serial_s = 0.0, obs_off_s = 0.0, obs_art_s = 0.0;
        if (room && ctx.spec->kind == Kind::Staged)
            pdes_serial_s =
                pairPass(ctx, machines(Kind::Staged, 1), off, nullptr,
                         false).wall_s;
        if (room && ctx.spec->kind == Kind::Sweep) {
            obs_off_s = sweepPass(ctx, ms, off, nullptr, ObsMode::Off,
                                  index++).wall_s;
            obs_art_s = sweepPass(ctx, ms, off, nullptr,
                                  ObsMode::Artifacts, index++).wall_s;
        }
        double probe_ns = 0.0;
        {
            std::lock_guard<std::mutex> lk(tally.mu);
            Tracer::Scope s(tr, "Cache::lookup+fill replay", "mem");
            probe_ns = cacheProbeNs(ms.front().cfg, tally.captured);
        }
        metrics = perLayer(ctx, traced, ref, tally, probe_ns,
                           pdes_serial_s, obs_off_s, obs_art_s);

        for (const Tracer::SelfTime &t : tr.selfTimes())
            std::cout << "span " << t.name << " count " << t.count
                      << " total_ms " << json::number(t.total_ms)
                      << " self_ms " << json::number(t.self_ms) << "\n";
        const fs::path trace_path =
            fs::path(args.work_dir) /
            ("trace-" + args.workload + "-seed" +
             std::to_string(args.seed) + ".json");
        std::ofstream(trace_path) << tr.chromeJson(context);
        std::cout << "trace " << trace_path.string() << "\n";
    }
    fs::remove_all(ctx.work_dir);

    printResult(metrics, ctx.chk);
    return ctx.chk.failed == 0 ? 0 : 1;
}
