#include "sim/experiment.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
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

struct HarnessState;

/**
 * One shared sweep flag and the MCMGPU_* variable that sets the same
 * thing. set() applies @p v to @p s or to the obs options, checking a
 * number under @p name; a switch gets a null @p v from the command
 * line and its variable's text from the environment.
 */
struct SweepFlag
{
    const char *flag;
    const char *env; //!< nullptr: none
    const char *arg; //!< "" for a switch
    const char *help;
    void (*set)(HarnessState &s, const char *name, const char *v);
};

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
    std::shared_ptr<exec::ResultCache> cache =
        std::make_shared<exec::ResultCache>(".mcmgpu_cache", kModelVersion);
    exec::TelemetrySink sink;
    unsigned jobs_setting = 1; //!< 0 = one per hardware thread
    std::string runs_json;
    double job_timeout_s = 0.0; //!< per-job wall budget; 0 disables

    HarnessState();
};

/** @p field from a flag's or variable's text @p v: a switch is on
 *  unless "", "0", "false", "no" or "off" (a bare flag has a null
 *  @p v); anything else parses as flagNumber() does. */
template <typename T>
void
setFrom(T &field, const char *name, const char *v)
{
    if constexpr (std::is_same_v<T, bool>) {
        const std::string s = v ? v : "1";
        field = !(s.empty() || s == "0" || s == "false" || s == "no" ||
                  s == "off");
    } else {
        field = flagNumber<T>(name, v);
    }
}

/** SweepFlag::set for a HarnessState member. */
template <auto Member>
void
setHarness(HarnessState &s, const char *name, const char *v)
{
    setFrom(s.*Member, name, v);
}

/** SweepFlag::set for an obs::Options member. */
template <auto Member>
void
setObs(HarnessState &, const char *name, const char *v)
{
    obs::Options o = obs::options();
    setFrom(o.*Member, name, v);
    obs::setOptions(o);
}

const SweepFlag kSweepFlags[] = {
    {"--quiet", nullptr, "", "suppress per-run progress lines",
     [](HarnessState &, const char *, const char *) { setProgress(false); }},
    {"--jobs", "MCMGPU_JOBS", "<n>",
     "parallel sweep workers (1 = serial,\n0 = one per hardware thread)",
     setHarness<&HarnessState::jobs_setting>},
    {"--runs-json", "MCMGPU_RUNS_JSON", "<path>",
     "write per-job telemetry after every\nsweep",
     setHarness<&HarnessState::runs_json>},
    {"--cache-dir", "MCMGPU_CACHE_DIR", "<dir>",
     "result cache location ('' disables)",
     [](HarnessState &s, const char *, const char *v) {
         s.cache = std::make_shared<exec::ResultCache>(v, kModelVersion);
     }},
    {"--job-timeout-s", "MCMGPU_JOB_TIMEOUT_S", "<s>",
     "per-job wall-clock budget; a run over\nbudget ends as 'timeout' and "
     "retries\nwith backoff (0 disables)",
     setHarness<&HarnessState::job_timeout_s>},
    {"--sample-period", "MCMGPU_SAMPLE_PERIOD", "<cycles>",
     "sample windowed timelines every N\ncycles into "
     "<obs-dir>/*.timeline.json",
     setObs<&obs::Options::sample_period>},
    {"--stats-json", "MCMGPU_STATS_JSON", "", "dump per-run stats.json",
     setObs<&obs::Options::stats_json>},
    {"--trace-json", "MCMGPU_TRACE_JSON", "", "emit per-run Chrome trace.json",
     setObs<&obs::Options::trace_json>},
    {"--obs-flight-recorder", "MCMGPU_FLIGHT_RECORDER", "<n>",
     "keep the last N events in a ring;\nfailed runs dump them as\n"
     "<obs-dir>/*.flight.json (0 disables)",
     setObs<&obs::Options::flight_recorder>},
    {"--obs-dir", "MCMGPU_OBS_DIR", "<dir>",
     "observability output directory\n(default obs-out)",
     [](HarnessState &s, const char *name, const char *v) {
         if (*v)
             setObs<&obs::Options::out_dir>(s, name, v);
     }},
};

HarnessState::HarnessState()
{
    // The variables first; flags parsed later override them.
    for (const SweepFlag &f : kSweepFlags) {
        if (const char *v = f.env ? std::getenv(f.env) : nullptr)
            f.set(*this, f.env, v);
    }
    // Funnel warn()/inform() through the single progress writer so
    // pool-worker diagnostics never interleave mid-line on stderr.
    exec::Progress::instance().installLogSink();
}

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

std::string
cliFlagHelp()
{
    std::string out;
    for (const SweepFlag &f : kSweepFlags) {
        out += helpLine(std::string(f.flag) + " " + f.arg,
                        f.help + (f.env ? std::string("\n(or set ") +
                                              f.env + ")"
                                        : ""));
    }
    return out;
}

void
initFromEnv()
{
    state();
}

void
badFlagValue(const std::string &flag, const std::string &text,
             const std::string &want)
{
    std::fprintf(stderr, "bad %s value '%s' (%s)\n", flag.c_str(),
                 text.c_str(), want.c_str());
    std::exit(1);
}

void
initBench(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (!parseCliFlag(argc, argv, i)) {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            std::exit(1);
        }
    }
    setQuietLogging(true);
}

std::string
helpLine(const std::string &flag_arg, const std::string &text)
{
    constexpr size_t kColumn = 29; // where descriptions start
    std::string line = "  " + flag_arg;
    line.resize(std::max(line.size() + 1, kColumn), ' ');
    for (char c : text)
        line += c == '\n' ? "\n" + std::string(kColumn, ' ')
                          : std::string(1, c);
    return line + "\n";
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

bool
parseCliFlag(int argc, char **argv, int &i)
{
    HarnessState &s = state(); // the environment first, flags over it
    for (const SweepFlag &f : kSweepFlags) {
        if (std::strcmp(argv[i], f.flag) != 0)
            continue;
        if (*f.arg && i + 1 >= argc)
            badFlagValue(f.flag, "", "missing");
        const char *value = *f.arg ? argv[++i] : nullptr;
        std::lock_guard<std::mutex> lk(s.mu);
        f.set(s, f.flag, value);
        return true;
    }
    return false;
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
    // Every visited field, then what visitFields() leaves to the key.
    std::string key;
    auto put = [&key](const auto &...v) {
        ((printValue(key, v), key += ','), ...);
    };
    visitFields(cfg, [&put](const FieldSpec &, const auto &v) { put(v); });
    for (const auto &s : cfg.fault.swept_sms)
        put("s", s.module, s.local_sm);
    for (const auto &l : cfg.fault.link_faults)
        put("l", l.module, l.bw_derate, l.error_rate);
    for (PartitionId p : cfg.fault.dead_partitions)
        put("d", p);
    // Runs on any N >= 2 threads are byte-identical to one another
    // (docs/PDES.md), so the engine is only serial or parallel.
    put(cfg.sim_threads >= 2);
    return key;
}

namespace {

/**
 * Parse @p text into the field flagged @p flag (a bad value exits 1),
 * adding "+<text>" to @p tag for a tagged field's non-default value.
 * @return false when no field has that flag.
 */
bool
setFlagged(GpuConfig &c, const std::string &flag, const std::string &text,
           std::string *tag)
{
    bool found = false;
    visitFields(c, [&](const FieldSpec &f, auto &field) {
        using T = std::decay_t<decltype(field)>;
        if (found || !f.flag || flag != f.flag)
            return;
        found = true;
        field = flagNumber<T>(flag, text);
        if (tag && f.tag && field != T{})
            *tag += "+" + text;
    });
    return found;
}

} // namespace

bool
MachineEdits::parse(int argc, char **argv, int &i)
{
    const std::string flag = argv[i];
    const std::string text = i + 1 < argc ? argv[i + 1] : "";
    GpuConfig probe; // checks the value now, before anything runs
    if (!setFlagged(probe, flag, text, &tag))
        return false;
    ++i;
    edits.push_back([flag, text](GpuConfig &c) {
        setFlagged(c, flag, text, nullptr);
    });
    return true;
}

bool
MachineEdits::apply(const std::string &preset, GpuConfig &out) const
{
    if (!configs::byName(preset, out)) {
        std::fprintf(stderr, "unknown machine '%s' (see --help)\n",
                     preset.c_str());
        return false;
    }
    for (const auto &edit : edits)
        edit(out);
    return true;
}

std::string
MachineEdits::help()
{
    std::string out;
    const GpuConfig defaults;
    visitFields(defaults, [&out](const FieldSpec &f, const auto &v) {
        using T = std::decay_t<decltype(v)>;
        if (!f.flag)
            return;
        std::string text;
        for (size_t w = 0; w < kWords<T>.size(); ++w)
            text += (w ? " | " : "") + std::string(kWords<T>[w]);
        out += helpLine(std::string(f.flag) + " " + f.arg, text + f.help);
    });
    return out;
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
