/**
 * @file
 * Experiment harness shared by the benchmark binaries: memoized runs
 * (a baseline is reused across every column of a figure), parallel
 * sweep execution through exec::JobGraph, category aggregation, and
 * speedup reporting in the paper's style.
 *
 * Threading model: one simulation is always single-threaded (see
 * docs/MODEL.md); parallelism lives purely at the experiment layer,
 * which fans independent (config, workload) jobs out over a
 * work-stealing pool. Results are bit-for-bit identical at any job
 * count. The setters here (setJobs, setCacheDir, ...) configure
 * process-wide state and belong in main() before the first run — they
 * are not meant to be raced against in-flight sweeps.
 */

#ifndef MCMGPU_SIM_EXPERIMENT_HH
#define MCMGPU_SIM_EXPERIMENT_HH

#include <exception>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/config.hh"
#include "exec/telemetry.hh"
#include "sim/results.hh"
#include "workloads/registry.hh"

namespace mcmgpu {
namespace experiment {

/**
 * A stable serialization of every timing-relevant config field; two
 * configs with equal keys simulate identically.
 */
std::string configKey(const GpuConfig &cfg);

/** Toggle per-run progress lines on stderr (off in unit tests). */
void setProgress(bool enabled);

/**
 * A fingerprint of a workload's launch structure; combined with
 * configKey() it identifies a simulation outcome for caching.
 */
std::string workloadKey(const workloads::Workload &w);

/**
 * Directory for the cross-process result cache. Defaults to
 * ".mcmgpu_cache" under the current directory; set to "" to disable.
 * Also honours the MCMGPU_CACHE_DIR environment variable.
 */
void setCacheDir(std::string dir);

/**
 * Worker threads for runMany()/runMatrix()/prefetch(). 1 (the
 * default) is strictly serial; 0 means one per hardware thread.
 * Initialized from the MCMGPU_JOBS environment variable.
 */
void setJobs(unsigned n);

/** Resolved worker count (never 0). */
unsigned jobs();

/**
 * Where to write runs.json telemetry after every sweep; "" (the
 * default) disables. Initialized from MCMGPU_RUNS_JSON.
 */
void setRunsJsonPath(std::string path);

/**
 * Per-job wall-clock budget in seconds; a simulation that exceeds it
 * ends as RunStatus::Timeout and takes the same retry-with-backoff
 * path as a stall. <= 0 (the default) disables. Initialized from
 * MCMGPU_JOB_TIMEOUT_S.
 */
void setJobTimeout(double seconds);

/** Exit 1 with a one-line message naming the flag and its value. */
[[noreturn]] void badFlagValue(const std::string &flag,
                               const std::string &text,
                               const std::string &want);

/**
 * @p text as a T, all of it: non-numeric text, trailing junk, a sign
 * on an unsigned T and values T cannot hold exit via badFlagValue().
 */
template <typename T>
T
flagNumber(const std::string &flag, const std::string &text)
{
    size_t used = 0;
    try {
        if constexpr (std::is_floating_point_v<T>) {
            const T v = std::stod(text, &used);
            if (used == text.size())
                return v;
        } else {
            const unsigned long long v = std::stoull(text, &used);
            if (used == text.size() && text[0] != '-' &&
                v <= std::numeric_limits<T>::max())
                return static_cast<T>(v);
        }
    } catch (const std::exception &) {
    }
    badFlagValue(flag, text,
                 std::is_floating_point_v<T> ? "want a number"
                                             : "want a non-negative integer");
}

/**
 * Consume one shared experiment CLI flag at @p argv[i] (--quiet,
 * --jobs N, --runs-json PATH, --cache-dir DIR, --job-timeout-s S,
 * --sample-period N, --stats-json, --trace-json,
 * --obs-flight-recorder N, --obs-dir DIR), advancing @p i past any
 * value. Every bench binary routes unrecognized args through this. A
 * malformed number exits 1 via badFlagValue().
 * @return true if the flag was consumed.
 */
bool parseCliFlag(int argc, char **argv, int &i);

/** Usage text for the flags parseCliFlag() understands. */
const char *cliFlagHelp();

/**
 * Run @p w on @p cfg, memoized per process. Simulation exceptions
 * (panics) propagate to the caller, exactly like the serial harness.
 */
const RunResult &run(const GpuConfig &cfg, const workloads::Workload &w);

/**
 * Run a set of workloads on one config; results in input order.
 * Executes cache misses on the worker pool (jobs() wide). Failed jobs
 * — stalled, over the cycle limit, or thrown — come back as per-job
 * RunResult statuses instead of aborting the sweep.
 */
std::vector<RunResult> runMany(
    const GpuConfig &cfg,
    std::span<const workloads::Workload *const> ws);

/**
 * Run the full configs × workloads matrix through the pool with
 * admission dedup (a config shared between figure columns simulates
 * once). @return results[c][w], indexed as the inputs.
 */
std::vector<std::vector<RunResult>> runMatrix(
    std::span<const GpuConfig> cfgs,
    std::span<const workloads::Workload *const> ws);

/**
 * Warm the memo (and disk cache) for configs × workloads using the
 * pool; subsequent run() calls on those pairs are lookups. The idiom
 * for figure binaries: declare the matrix, prefetch, then format with
 * the serial-looking code.
 */
void prefetch(std::span<const GpuConfig> cfgs,
              std::span<const workloads::Workload *const> ws);

/** Drop every memoized result (tests; the disk cache is untouched). */
void clearMemo();

/**
 * Cumulative telemetry over every job this process admitted to a
 * graph, plus process-level memo hits. Feeds suite_overview's footer
 * and the runs.json aggregate header.
 */
struct SweepSummary
{
    exec::SweepStats graph;   //!< jobs that reached a JobGraph
    uint64_t memo_hits = 0;   //!< run()/runMany() served from the memo
};
SweepSummary sweepSummary();

/** Per-workload speedups of @p test over @p base (paired by order). */
std::vector<double> speedups(std::span<const RunResult> test,
                             std::span<const RunResult> base);

/** Geometric-mean speedup of @p cfg over @p base across @p ws. */
double geomeanSpeedup(const GpuConfig &cfg, const GpuConfig &base,
                      std::span<const workloads::Workload *const> ws);

/** Pointers to every registered workload (all 48). */
std::vector<const workloads::Workload *> everyWorkload();

/** Pointers to the high-parallelism workloads (M- plus C-intensive). */
std::vector<const workloads::Workload *> highParallelismWorkloads();

} // namespace experiment
} // namespace mcmgpu

#endif // MCMGPU_SIM_EXPERIMENT_HH
