#include "sim/experiment.hh"

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "common/summary.hh"
#include "exec/job_graph.hh"
#include "exec/progress.hh"
#include "exec/result_cache.hh"
#include "obs/options.hh"

namespace mcmgpu {
namespace experiment {

namespace {

/** Bump when the timing model changes to invalidate stale caches. */
constexpr int kModelVersion = 2;

/**
 * Process-wide harness state. One mutex guards all of it: the memo is
 * only touched from admission/commit paths on caller threads (never
 * from pool workers), so contention is a non-issue.
 */
struct HarnessState
{
    std::mutex mu;
    std::map<std::string, RunResult> memo;
    uint64_t memo_hits = 0;
    std::shared_ptr<exec::ResultCache> cache;
    exec::TelemetrySink sink;
    unsigned jobs_setting; //!< 0 = one per hardware thread
    std::string runs_json;
    double job_timeout_s = 0.0; //!< per-job wall budget; 0 disables

    HarnessState()
    {
        const char *dir = std::getenv("MCMGPU_CACHE_DIR");
        cache = std::make_shared<exec::ResultCache>(
            dir ? dir : ".mcmgpu_cache", kModelVersion);
        const char *jobs_env = std::getenv("MCMGPU_JOBS");
        jobs_setting = jobs_env ? unsigned(std::strtoul(jobs_env,
                                                        nullptr, 10))
                                : 1;
        const char *runs_env = std::getenv("MCMGPU_RUNS_JSON");
        runs_json = runs_env ? runs_env : "";
        const char *timeout_env = std::getenv("MCMGPU_JOB_TIMEOUT_S");
        if (timeout_env)
            job_timeout_s = std::strtod(timeout_env, nullptr);
        // Observability defaults come from MCMGPU_SAMPLE_PERIOD /
        // MCMGPU_STATS_JSON / MCMGPU_TRACE_JSON / MCMGPU_OBS_DIR; CLI
        // flags parsed later override them.
        obs::initFromEnv();
        // Funnel warn()/inform() through the single progress writer so
        // pool-worker diagnostics never interleave mid-line on stderr.
        exec::Progress::instance().installLogSink();
    }
};

HarnessState &
state()
{
    static HarnessState s;
    return s;
}

unsigned
resolveJobs(unsigned setting)
{
    if (setting != 0)
        return setting;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

bool
cacheableKey(const std::string &key)
{
    return key.find("<uncacheable>") == std::string::npos;
}

/** Snapshot the bits of state a sweep needs, under the lock once. */
struct SweepContext
{
    std::shared_ptr<exec::ResultCache> cache;
    unsigned jobs;
    std::string runs_json;
    double job_timeout_s;
};

SweepContext
sweepContext()
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return {s.cache, resolveJobs(s.jobs_setting), s.runs_json,
            s.job_timeout_s};
}

void
maybeWriteRunsJson(const SweepContext &ctx)
{
    if (!ctx.runs_json.empty())
        state().sink.writeJson(ctx.runs_json, ctx.jobs);
}

} // namespace

void
setProgress(bool enabled)
{
    exec::Progress::instance().setEnabled(enabled);
}

void
setCacheDir(std::string dir)
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.cache = std::make_shared<exec::ResultCache>(std::move(dir),
                                                  kModelVersion);
}

void
setJobs(unsigned n)
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.jobs_setting = n;
}

unsigned
jobs()
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return resolveJobs(s.jobs_setting);
}

void
setRunsJsonPath(std::string path)
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.runs_json = std::move(path);
}

void
setJobTimeout(double seconds)
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.job_timeout_s = seconds > 0.0 ? seconds : 0.0;
}

const char *
cliFlagHelp()
{
    return "  --quiet                    suppress per-run progress lines\n"
           "  --jobs <n>                 parallel sweep workers (1 = "
           "serial,\n"
           "                             0 = one per hardware thread; or "
           "set\n"
           "                             MCMGPU_JOBS)\n"
           "  --runs-json <path>         write per-job telemetry after "
           "every\n"
           "                             sweep (or set MCMGPU_RUNS_JSON)\n"
           "  --cache-dir <dir>          result cache location ('' "
           "disables;\n"
           "                             or set MCMGPU_CACHE_DIR)\n"
           "  --job-timeout-s <s>        per-job wall-clock budget; a "
           "run over\n"
           "                             budget ends as 'timeout' and "
           "retries\n"
           "                             with backoff (or set\n"
           "                             MCMGPU_JOB_TIMEOUT_S; 0 "
           "disables)\n"
           "  --sample-period <cycles>   sample windowed timelines every "
           "N\n"
           "                             cycles into <obs-dir>/"
           "*.timeline.json\n"
           "                             (or set MCMGPU_SAMPLE_PERIOD)\n"
           "  --stats-json               dump per-run stats.json (or "
           "set\n"
           "                             MCMGPU_STATS_JSON=1)\n"
           "  --trace-json               emit per-run Chrome trace.json "
           "(or\n"
           "                             set MCMGPU_TRACE_JSON=1)\n"
           "  --obs-flight-recorder <n>  keep the last N events in a "
           "ring;\n"
           "                             failed runs dump them as\n"
           "                             <obs-dir>/*.flight.json (or "
           "set\n"
           "                             MCMGPU_FLIGHT_RECORDER; 0 "
           "disables)\n"
           "  --obs-dir <dir>            observability output directory\n"
           "                             (default obs-out; or set "
           "MCMGPU_OBS_DIR)\n";
}

bool
parseCliFlag(int argc, char **argv, int &i)
{
    const char *arg = argv[i];
    auto value = [&]() -> const char * {
        fatal_if(i + 1 >= argc, "flag '", arg, "' needs a value");
        return argv[++i];
    };
    if (!std::strcmp(arg, "--quiet")) {
        setProgress(false);
    } else if (!std::strcmp(arg, "--jobs")) {
        setJobs(unsigned(std::strtoul(value(), nullptr, 10)));
    } else if (!std::strcmp(arg, "--runs-json")) {
        setRunsJsonPath(value());
    } else if (!std::strcmp(arg, "--cache-dir")) {
        setCacheDir(value());
    } else if (!std::strcmp(arg, "--job-timeout-s")) {
        setJobTimeout(std::strtod(value(), nullptr));
    } else if (!std::strcmp(arg, "--sample-period")) {
        obs::Options o = obs::options();
        o.sample_period = std::strtoull(value(), nullptr, 10);
        obs::setOptions(o);
    } else if (!std::strcmp(arg, "--stats-json")) {
        obs::Options o = obs::options();
        o.stats_json = true;
        obs::setOptions(o);
    } else if (!std::strcmp(arg, "--trace-json")) {
        obs::Options o = obs::options();
        o.trace_json = true;
        obs::setOptions(o);
    } else if (!std::strcmp(arg, "--obs-flight-recorder")) {
        obs::Options o = obs::options();
        o.flight_recorder = static_cast<uint32_t>(
            std::strtoul(value(), nullptr, 10));
        obs::setOptions(o);
    } else if (!std::strcmp(arg, "--obs-dir")) {
        obs::Options o = obs::options();
        o.out_dir = value();
        obs::setOptions(o);
    } else {
        return false;
    }
    return true;
}

std::string
workloadKey(const workloads::Workload &w)
{
    std::ostringstream os;
    os << w.abbr << '/' << w.footprint_bytes << '/' << w.launches.size();
    bool cacheable = true;
    for (const KernelLaunch &l : w.launches) {
        os << '/' << l.kernel.signature << '@' << l.iterations;
        if (l.kernel.signature.empty())
            cacheable = false;
    }
    // Kernels without a signature (hand-written traces) cannot be
    // fingerprinted; poison the key so the disk cache is bypassed.
    if (!cacheable)
        os << "/<uncacheable>";
    return os.str();
}

std::string
configKey(const GpuConfig &cfg)
{
    std::ostringstream os;
    os << cfg.num_modules << '/' << cfg.sms_per_module << '/'
       << cfg.partitions_per_module << '/' << cfg.max_warps_per_sm << '/'
       << cfg.max_ctas_per_sm << '/' << cfg.sm_issue_width << ','
       << cfg.max_outstanding_per_warp << '/'
       << cfg.l1.size_bytes << ',' << cfg.l1.ways << ','
       << cfg.l1.hit_latency << '/' << cfg.l15_total_bytes << ','
       << static_cast<int>(cfg.l15_alloc) << ',' << cfg.l15.ways << ','
       << cfg.l15.hit_latency << ',' << cfg.l15_miss_penalty << '/'
       << cfg.l2.size_bytes << ','
       << cfg.l2.ways << ',' << cfg.l2.hit_latency << '/'
       << cfg.dram_total_gbps << ',' << cfg.dram_latency_ns << ','
       << cfg.channels_per_partition << '/'
       << static_cast<int>(cfg.fabric) << ',' << cfg.link_gbps << ','
       << cfg.link_hop_cycles << ',' << cfg.board_level_links << '/'
       << static_cast<int>(cfg.page_policy) << ',' << cfg.page_bytes << ','
       << cfg.interleave_bytes << '/'
       << static_cast<int>(cfg.cta_sched) << ','
       << cfg.kernel_launch_cycles << '/'
       << cfg.watchdog_cycles << ',' << cfg.cycle_limit;
    // Fault plans change the machine; a pristine plan adds nothing so
    // pre-fault cache entries for the same machine stay valid.
    if (!cfg.fault.empty()) {
        const FaultPlan &f = cfg.fault;
        os << "/F" << f.seed << ',' << f.link_retry_cycles;
        for (const auto &s : f.swept_sms)
            os << ";s" << s.module << '.' << s.local_sm;
        for (const auto &l : f.link_faults) {
            os << ";l" << l.module << '.' << l.bw_derate << '.'
               << l.error_rate;
        }
        for (PartitionId p : f.dead_partitions)
            os << ";d" << p;
    }
    // Memory-model selection changes timing under Staged; the default
    // chain composition adds nothing so pre-pipeline cache entries for
    // the same machine stay valid.
    if (cfg.mem_model != MemModel::Chain || cfg.remote_mshrs != 0) {
        os << "/M" << static_cast<int>(cfg.mem_model) << ','
           << cfg.remote_mshrs;
    }
    // Fabric virtual channels change staged timing; VCs off (the
    // default, and the only behaviour the chain model has) adds
    // nothing so pre-VC cache entries stay valid.
    if (cfg.fabric_vcs != 0)
        os << "/V" << cfg.fabric_vcs << ',' << cfg.vc_credits;
    // An explicit topology spec changes routing (and package-tier link
    // pricing); the empty default derives from `fabric` above, adding
    // nothing so pre-topology cache entries stay valid.
    if (!cfg.topology.empty()) {
        os << "/T" << cfg.topology << ',' << cfg.pkg_link_gbps << ','
           << cfg.pkg_link_hop_cycles;
    }
    // DRAM bus-turnaround model; off (the default) adds nothing.
    if (cfg.dram_turnaround_cycles != 0) {
        os << "/D" << cfg.dram_turnaround_cycles << ','
           << cfg.dram_write_drain;
    }
    // Adaptive route selection changes fabric timing; the static
    // default is bit-identical to the legacy toggle and adds nothing,
    // so pre-adaptive cache entries stay valid.
    if (cfg.route_policy != RoutePolicy::Static)
        os << "/R" << static_cast<int>(cfg.route_policy);
    // The PDES engine's cycles differ from the serial engine's by the
    // documented store-ack slip but not with its thread count (any
    // N >= 2 is byte-identical), so one flag covers every N. Serial
    // adds nothing.
    if (cfg.sim_threads >= 2)
        os << "/P1";
    // Line size sets the tag geometry and the bytes every miss moves;
    // the 128 B default on all three levels adds nothing.
    if (cfg.l1.line_bytes != 128 || cfg.l15.line_bytes != 128 ||
        cfg.l2.line_bytes != 128) {
        os << "/L" << cfg.l1.line_bytes << ',' << cfg.l15.line_bytes << ','
           << cfg.l2.line_bytes;
    }
    return os.str();
}

const RunResult &
run(const GpuConfig &cfg, const workloads::Workload &w)
{
    HarnessState &s = state();
    const std::string key = configKey(cfg) + "##" + workloadKey(w);
    {
        std::lock_guard<std::mutex> lk(s.mu);
        auto it = s.memo.find(key);
        if (it != s.memo.end()) {
            ++s.memo_hits;
            return it->second;
        }
    }

    const SweepContext ctx = sweepContext();
    exec::JobGraph graph(ctx.cache.get(), &s.sink);
    graph.setJobTimeout(ctx.job_timeout_s);
    if (exec::Progress::instance().enabled())
        graph.setProgressLabel("sim");
    const size_t slot = graph.add(cfg, w, key, cacheableKey(key));
    graph.execute(1); // one job: always inline on the caller
    maybeWriteRunsJson(ctx);
    // Single runs keep the serial harness contract: panics propagate.
    if (std::exception_ptr err = graph.error(slot))
        std::rethrow_exception(err);

    std::lock_guard<std::mutex> lk(s.mu);
    return s.memo.emplace(key, graph.result(slot)).first->second;
}

namespace {

/**
 * Shared sweep body: admit every memo-missing (config, workload) pair
 * to one dedup'd graph, execute on the pool, commit to the memo in
 * admission order, then copy results out in input order.
 */
std::vector<std::vector<RunResult>>
runGrid(std::span<const GpuConfig> cfgs,
        std::span<const workloads::Workload *const> ws)
{
    HarnessState &s = state();
    const SweepContext ctx = sweepContext();
    exec::JobGraph graph(ctx.cache.get(), &s.sink);
    graph.setJobTimeout(ctx.job_timeout_s);
    if (exec::Progress::instance().enabled())
        graph.setProgressLabel("sweep");

    std::vector<std::string> cfg_keys;
    cfg_keys.reserve(cfgs.size());
    for (const GpuConfig &cfg : cfgs)
        cfg_keys.push_back(configKey(cfg));
    std::vector<std::string> w_keys;
    w_keys.reserve(ws.size());
    for (const workloads::Workload *w : ws)
        w_keys.push_back(workloadKey(*w));

    // Admission: memo probe, then graph (which dedups shared keys).
    struct Pending { std::string key; size_t slot; };
    std::map<std::string, size_t> admitted;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        for (size_t c = 0; c < cfgs.size(); ++c) {
            for (size_t i = 0; i < ws.size(); ++i) {
                std::string key = cfg_keys[c] + "##" + w_keys[i];
                if (s.memo.count(key)) {
                    ++s.memo_hits;
                    continue;
                }
                if (admitted.count(key))
                    continue;
                const size_t slot = graph.add(cfgs[c], *ws[i], key,
                                              cacheableKey(key));
                admitted.emplace(std::move(key), slot);
            }
        }
    }

    graph.execute(ctx.jobs);

    // Deterministic commit: admission order, caller thread. emplace
    // keeps an existing entry, so a key that raced in via run() on
    // another caller thread stays put.
    std::vector<std::vector<RunResult>> out(
        cfgs.size(), std::vector<RunResult>(ws.size()));
    {
        std::lock_guard<std::mutex> lk(s.mu);
        for (const auto &[key, slot] : admitted)
            s.memo.emplace(key, graph.result(slot));
        for (size_t c = 0; c < cfgs.size(); ++c) {
            for (size_t i = 0; i < ws.size(); ++i) {
                const std::string key = cfg_keys[c] + "##" + w_keys[i];
                auto it = s.memo.find(key);
                panic_if(it == s.memo.end(),
                         "runMatrix(): missing result for ", key);
                out[c][i] = it->second;
            }
        }
    }
    maybeWriteRunsJson(ctx);
    return out;
}

} // namespace

std::vector<RunResult>
runMany(const GpuConfig &cfg,
        std::span<const workloads::Workload *const> ws)
{
    std::vector<std::vector<RunResult>> grid =
        runGrid(std::span<const GpuConfig>(&cfg, 1), ws);
    return std::move(grid.front());
}

std::vector<std::vector<RunResult>>
runMatrix(std::span<const GpuConfig> cfgs,
          std::span<const workloads::Workload *const> ws)
{
    return runGrid(cfgs, ws);
}

void
prefetch(std::span<const GpuConfig> cfgs,
         std::span<const workloads::Workload *const> ws)
{
    runGrid(cfgs, ws);
}

void
clearMemo()
{
    HarnessState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.memo.clear();
    s.memo_hits = 0;
}

SweepSummary
sweepSummary()
{
    HarnessState &s = state();
    SweepSummary out;
    out.graph = s.sink.stats();
    std::lock_guard<std::mutex> lk(s.mu);
    out.memo_hits = s.memo_hits;
    return out;
}

std::vector<double>
speedups(std::span<const RunResult> test, std::span<const RunResult> base)
{
    panic_if(test.size() != base.size(),
             "speedups(): mismatched result sets");
    std::vector<double> out;
    out.reserve(test.size());
    for (size_t i = 0; i < test.size(); ++i) {
        panic_if(test[i].workload != base[i].workload,
                 "speedups(): pairing mismatch at index ", i);
        out.push_back(test[i].speedupOver(base[i]));
    }
    return out;
}

double
geomeanSpeedup(const GpuConfig &cfg, const GpuConfig &base,
               std::span<const workloads::Workload *const> ws)
{
    std::vector<RunResult> t = runMany(cfg, ws);
    std::vector<RunResult> b = runMany(base, ws);
    std::vector<double> s = speedups(t, b);
    return geomean(s);
}

std::vector<const workloads::Workload *>
everyWorkload()
{
    std::vector<const workloads::Workload *> out;
    for (const workloads::Workload &w : workloads::allWorkloads())
        out.push_back(&w);
    return out;
}

std::vector<const workloads::Workload *>
highParallelismWorkloads()
{
    std::vector<const workloads::Workload *> out;
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        if (w.category != workloads::Category::LimitedParallelism)
            out.push_back(&w);
    }
    return out;
}

} // namespace experiment
} // namespace mcmgpu
