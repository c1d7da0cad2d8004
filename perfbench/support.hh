/**
 * @file
 * Pieces of the benchmark that are independent of how a workload is
 * driven: the seeded held-out app pick, order statistics, the in-memory
 * span tracer that writes Chrome-trace JSON, the counting WarpTrace
 * decorator, and scans over the simulator's stats/fabric JSON text.
 * The self-test (`perfbench --self-test`) exercises all of them.
 */

#ifndef PERFBENCH_SUPPORT_HH
#define PERFBENCH_SUPPORT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "gpu/kernel.hh"
#include "workloads/registry.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds used so far by all threads of this process. Time the
 *  hypervisor steals from a virtual CPU is not counted (Linux with
 *  paravirtual steal accounting), nor is time spent waiting to run. */
double processCpuSeconds();

/**
 * A host-speed probe. A shared host changes speed by up to 2x within
 * minutes as its other tenants come and go, and CPU time slows with it
 * (the neighbours compete for caches and memory, not for the vCPU). So
 * each measurement is bracketed by probes: one probe is a fixed unit of
 * reference work, independent of the simulator, whose CPU time tracks
 * the simulator's under that interference. The unit mixes, in about
 * equal parts of its time, a dependent random walk through a 16 MiB
 * table, integer arithmetic, a binary-heap event loop and a bytecode
 * interpreter with unpredictable branches. Which kind of work slows
 * most changes with the neighbours, so the mix covers memory latency,
 * the execution units and the front end, as the simulator uses all
 * three (see README.md for the measurements behind the choice).
 *
 * A time t measured between probes p0 and p1 is reported as
 * t * kReferenceS / mean(p0, p1): the time it would take on a host on
 * which one unit takes kReferenceS.
 */
class HostProbe
{
  public:
    /** CPU seconds of one unit on the reference host. */
    static constexpr double kReferenceS = 0.1;

    /** Per-thread working memory, allocated up front. */
    struct Slot
    {
        std::vector<uint64_t> heap;
        std::vector<uint64_t> state; //!< the interpreter's 1 MiB
    };

    /** A probe that can run on up to @p max_threads threads at once. */
    explicit HostProbe(unsigned max_threads);

    /** CPU seconds of one unit. The unit runs on @p threads threads at
     *  once, for measurements that keep that many threads busy, and
     *  their CPU times are averaged. */
    double sample(unsigned threads);

    /** @p t scaled to the reference host by the probes @p p0, @p p1
     *  taken before and after it. */
    static double
    scale(double t, double p0, double p1)
    {
        return t * 2.0 * kReferenceS / (p0 + p1);
    }

    /** Bytes the probe holds, all resident, for its whole life. */
    size_t bytes() const;

    /** Every sample taken so far, in order. */
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<uint32_t> next_; //!< one random cycle over the table
    std::vector<uint8_t> program_; //!< the interpreter's bytecode
    std::vector<Slot> slots_;
    std::vector<double> samples_;
};

/** Wall and process CPU time since construction. */
class Stopwatch
{
  public:
    Stopwatch() : wall0_(Clock::now()), cpu0_(processCpuSeconds()) {}

    double wall() const { return secondsSince(wall0_); }
    double cpu() const { return processCpuSeconds() - cpu0_; }

  private:
    Clock::time_point wall0_;
    double cpu0_;
};

// ---- seeded app pick --------------------------------------------------------

/** How many candidates, those nearest the median size, a held-out app
 *  is drawn from. */
constexpr size_t kHeldOutPool = 2;

/**
 * Draw one app of category @p c that is not in @p core, from the seed
 * and a per-draw @p salt. Only apps of comparable size are drawn: the
 * kHeldOutPool candidates whose @p size is nearest, as a ratio, to the
 * median size of all candidates, so the seed changes the app but hardly
 * the amount of work. Deterministic in (seed, salt) and independent of
 * the platform's <random> implementation.
 */
const mcmgpu::workloads::Workload *
pickHeldOut(mcmgpu::workloads::Category c,
            const std::vector<std::string> &core, uint64_t seed,
            uint64_t salt,
            const std::function<double(const std::string &)> &size);

// ---- order statistics -------------------------------------------------------

/** Median and 90th percentile of a sample, with its size. */
struct Summary
{
    size_t n = 0;
    double median = 0.0;
    double p90 = 0.0;

    /** True when at least ten samples lie beyond the 90th percentile. */
    bool p90Resolved() const { return n >= 100; }
};

/** Linear-interpolated quantile @p q in [0, 1] of @p v (copied). */
double quantile(std::vector<double> v, double q);

Summary summarize(const std::vector<double> &v);

// ---- span tracer ------------------------------------------------------------

/**
 * Spans and counters recorded around the benchmark's own calls into
 * the simulator's layers. Single-threaded: only the benchmark's main
 * thread records. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span of @p layer; returns its id (0 when disabled). */
    size_t begin(const std::string &name, const std::string &layer);
    void end(size_t id);

    /** All spans opened from now on carry @p pair as their pair id. */
    void setPair(uint64_t pair) { pair_ = pair; }

    void counter(const std::string &name, double value);

    /** Per span name: count, total and self time (total minus the time
     *  covered by direct children), in milliseconds. */
    struct SelfTime
    {
        std::string name;
        uint64_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    std::vector<SelfTime> selfTimes() const;

    /** The whole recording as one Chrome-trace JSON document, with
     *  @p context (a JSON object) under "otherData". */
    std::string chromeJson(const std::string &context) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const std::string &name, const std::string &layer)
            : t_(t), id_(t.begin(name, layer))
        {}
        ~Scope() { t_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        size_t id_;
    };

  private:
    struct Span
    {
        std::string name;
        std::string layer;
        double start_us = 0.0;
        double end_us = -1.0;
        size_t parent = 0; //!< 0 = none; else id of the enclosing span
        uint64_t pair = 0;
    };
    struct Counter
    {
        std::string name;
        double ts_us = 0.0;
        double value = 0.0;
        uint64_t pair = 0;
    };

    double nowUs() const;

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_; //!< span id i lives at spans_[i - 1]
    std::vector<size_t> open_;
    std::vector<Counter> counters_;
    uint64_t pair_ = 0;
};

// ---- counting WarpTrace decorator ------------------------------------------

/** One captured memory reference of the warp-op stream. */
struct MemRef
{
    mcmgpu::Addr addr = 0;
    bool is_store = false;
};

/**
 * Totals from every counting trace. Traces run on simulator worker
 * threads, so each trace keeps private counts and folds them in here
 * when it is destroyed.
 */
struct TraceTally
{
    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> ns{0};

    /** Up to capture_cap memory references, in trace-retirement order. */
    size_t capture_cap = 0;
    std::atomic<bool> capture_full{false};
    std::mutex mu;
    std::vector<MemRef> captured; //!< guarded by mu

    void reset(size_t cap);
};

/**
 * Rewrite every launch of @p w so each warp's trace is wrapped in a
 * decorator that counts and times next() into @p tally. The generated
 * operations, and with them every simulated result, are unchanged.
 * @p tally must outlive every simulation of @p w.
 */
void instrument(mcmgpu::workloads::Workload &w, TraceTally &tally);

// ---- scans over the simulator's JSON text ----------------------------------

/** Value of the first `"key": <number>` in @p text; false if absent. */
bool firstNumber(const std::string &text, const std::string &key,
                 double &out);

/** Value of the first `"key": "<string>"` in @p text (no escapes);
 *  empty if absent. */
std::string firstString(const std::string &text, const std::string &key);

/** Sum of every `"key": <number>` in @p text. */
double sumNumbers(const std::string &text, const std::string &key);

/** Utilization of fabric.json's hottest_link (0 when absent). */
double hottestLinkUtil(const std::string &fabric_json);

} // namespace perfbench

#endif // PERFBENCH_SUPPORT_HH
