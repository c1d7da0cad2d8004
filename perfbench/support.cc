#include "support.hh"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "common/json.hh"
#include "common/rng.hh"

namespace perfbench {

using mcmgpu::WarpOp;
using mcmgpu::WarpTrace;
namespace wl = mcmgpu::workloads;

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

const wl::Workload *
pickHeldOut(wl::Category c, const std::vector<std::string> &core,
            uint64_t seed, uint64_t salt,
            const std::function<double(const std::string &)> &size)
{
    std::vector<const wl::Workload *> candidates;
    std::vector<double> sizes;
    for (const wl::Workload *w : wl::byCategory(c)) {
        if (std::find(core.begin(), core.end(), w->abbr) == core.end()) {
            candidates.push_back(w);
            sizes.push_back(size(w->abbr));
        }
    }
    if (candidates.empty())
        return nullptr;
    const double mid = quantile(sizes, 0.5);
    std::vector<size_t> order(candidates.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    auto distance = [&](size_t i) {
        return std::abs(std::log(std::max(sizes[i], 1e-9) /
                                 std::max(mid, 1e-9)));
    };
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return distance(a) < distance(b);
    });
    order.resize(std::min(order.size(), kHeldOutPool));
    // Draw in registry order, so the pick does not hang on tie order.
    std::sort(order.begin(), order.end());
    std::vector<const wl::Workload *> pool;
    for (size_t i : order)
        pool.push_back(candidates[i]);
    mcmgpu::Rng rng(mcmgpu::splitmix64(seed) ^ salt);
    return pool[rng.below(pool.size())];
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Summary
summarize(const std::vector<double> &v)
{
    Summary s;
    s.n = v.size();
    s.median = quantile(v, 0.5);
    s.p90 = quantile(v, 0.9);
    return s;
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                      origin_).count();
}

size_t
Tracer::begin(const std::string &name, const std::string &layer)
{
    if (!enabled_)
        return 0;
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = open_.empty() ? 0 : open_.back();
    s.pair = pair_;
    s.start_us = nowUs();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size());
    return spans_.size();
}

void
Tracer::end(size_t id)
{
    if (!enabled_ || id == 0)
        return;
    spans_[id - 1].end_us = nowUs();
    // Spans nest strictly (RAII scopes), so the one closing is the
    // innermost open one.
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
Tracer::counter(const std::string &name, double value)
{
    if (enabled_)
        counters_.push_back({name, nowUs(), value, pair_});
}

std::vector<Tracer::SelfTime>
Tracer::selfTimes() const
{
    std::vector<double> child_us(spans_.size() + 1, 0.0);
    for (const Span &s : spans_)
        if (s.parent != 0 && s.end_us >= 0.0)
            child_us[s.parent] += s.end_us - s.start_us;
    std::map<std::string, SelfTime> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end_us < 0.0)
            continue;
        SelfTime &t = by_name[s.name];
        t.name = s.name;
        ++t.count;
        const double dur = s.end_us - s.start_us;
        t.total_ms += dur / 1000.0;
        t.self_ms += (dur - child_us[i + 1]) / 1000.0;
    }
    std::vector<SelfTime> out;
    for (auto &[name, t] : by_name)
        out.push_back(t);
    return out;
}

std::string
Tracer::chromeJson(const std::string &context) const
{
    using mcmgpu::json::number;
    using mcmgpu::json::quoted;
    std::ostringstream os;
    os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": " << context
       << ",\n  \"traceEvents\": [\n";
    os << "    {\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
          "\"args\": {\"name\": \"perfbench\"}}";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end_us < 0.0)
            continue;
        os << ",\n    {\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": "
           << quoted(s.name) << ", \"cat\": " << quoted(s.layer)
           << ", \"ts\": " << number(s.start_us)
           << ", \"dur\": " << number(s.end_us - s.start_us)
           << ", \"args\": {\"id\": " << i + 1
           << ", \"parent\": " << s.parent << ", \"pair\": " << s.pair
           << "}}";
    }
    for (const Counter &c : counters_)
        os << ",\n    {\"ph\": \"C\", \"pid\": 1, \"name\": "
           << quoted(c.name) << ", \"ts\": " << number(c.ts_us)
           << ", \"args\": {\"value\": " << number(c.value)
           << ", \"pair\": " << c.pair << "}}";
    os << "\n  ]\n}\n";
    return os.str();
}

// ---- host-speed probe -------------------------------------------------------

namespace {

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t
xorshift(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** One unit of reference work on a thread's @p slot; returns its thread
 *  CPU seconds. */
double
probeUnit(const std::vector<uint32_t> &next,
          const std::vector<uint8_t> &program, HostProbe::Slot &slot,
          uint32_t start)
{
    const double t0 = threadCpuSeconds();
    uint64_t x = 0x9E3779B97F4A7C15ull + start;
    uint64_t acc = 0;
    // Dependent loads that miss the private caches.
    uint32_t at = start;
    for (int i = 0; i < 200000; ++i)
        at = next[at];
    acc += at;
    // Integer arithmetic.
    for (int i = 0; i < 10000000; ++i)
        acc += xorshift(x) * 0x9E3779B97F4A7C15ull >> 61;
    // An event loop: a binary heap of 64Ki timestamps, popped and
    // rescheduled.
    std::vector<uint64_t> &heap = slot.heap;
    const auto later = std::greater<uint64_t>();
    heap.clear();
    for (int i = 0; i < 65536; ++i) {
        heap.push_back(xorshift(x) & 0xfffff);
        std::push_heap(heap.begin(), heap.end(), later);
    }
    for (int i = 0; i < 200000; ++i) {
        std::pop_heap(heap.begin(), heap.end(), later);
        heap.back() += 1 + (xorshift(x) & 0xffff);
        std::push_heap(heap.begin(), heap.end(), later);
    }
    acc += heap.front();
    // An interpreter: unpredictable dispatch and data-dependent branches
    // over 1 MiB of state.
    std::vector<uint64_t> &state = slot.state;
    const size_t mask = state.size() - 1;
    size_t pc = 0;
    uint64_t r = 1;
    for (int i = 0; i < 1200000; ++i) {
        uint64_t &m = state[(r + pc) & mask];
        switch (program[pc] & 15) {
          case 0: r += m; break;
          case 1: r ^= m << 1; break;
          case 2: m += r; break;
          case 3: r = r * 3 + 1; break;
          case 4: pc += (r & 1) * 3; break;
          case 5: m ^= r; break;
          case 6: r -= m >> 2; break;
          case 7: r = (r >> 1) | (m << 63); break;
          case 8: pc += (m & 2) ? 7 : 0; break;
          case 9: m = r + pc; break;
          case 10: r += pc; break;
          case 11: r ^= r >> 13; break;
          case 12: m += 1; break;
          case 13: pc += (r & 4) ? 11 : 0; break;
          case 14: r *= 0x9E37; break;
          default: r += m * 5; break;
        }
        pc = (pc + 1) % program.size();
    }
    acc += r;
    volatile uint64_t sink = acc;
    (void)sink;
    return threadCpuSeconds() - t0;
}

} // namespace

HostProbe::HostProbe(unsigned max_threads)
    : next_(size_t{1} << 22), slots_(std::max(1u, max_threads))
{
    // A random visiting order linked into one cycle through every slot,
    // so the walk never settles into a short, cache-resident loop.
    std::vector<uint32_t> order(next_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<uint32_t>(i);
    mcmgpu::Rng rng(0x5eed);
    for (size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    for (size_t i = 0; i < order.size(); ++i)
        next_[order[i]] = order[(i + 1) % order.size()];
    program_.resize(4096);
    for (uint8_t &op : program_)
        op = static_cast<uint8_t>(rng.below(256));
    for (Slot &s : slots_) {
        s.heap.reserve(65536);
        s.state.assign(size_t{1} << 17, 3);
    }
}

size_t
HostProbe::bytes() const
{
    size_t b = next_.size() * sizeof(uint32_t) + program_.size();
    for (const Slot &s : slots_)
        b += (s.heap.capacity() + s.state.size()) * sizeof(uint64_t);
    return b;
}

double
HostProbe::sample(unsigned threads)
{
    threads = std::clamp(threads, 1u, static_cast<unsigned>(slots_.size()));
    std::vector<double> cpu(threads, 0.0);
    std::vector<std::thread> helpers;
    const uint32_t stride = static_cast<uint32_t>(next_.size() / threads);
    for (unsigned t = 1; t < threads; ++t)
        helpers.emplace_back([&, t] {
            cpu[t] = probeUnit(next_, program_, slots_[t], t * stride);
        });
    cpu[0] = probeUnit(next_, program_, slots_[0], 0);
    for (std::thread &h : helpers)
        h.join();
    double sum = 0.0;
    for (double c : cpu)
        sum += c;
    samples_.push_back(sum / static_cast<double>(threads));
    return samples_.back();
}

// ---- counting trace ---------------------------------------------------------

void
TraceTally::reset(size_t cap)
{
    ops = 0;
    ns = 0;
    capture_cap = cap;
    capture_full = cap == 0;
    std::lock_guard<std::mutex> lk(mu);
    captured.clear();
}

namespace {

class CountingTrace : public WarpTrace
{
  public:
    CountingTrace(std::unique_ptr<WarpTrace> inner, TraceTally &tally)
        : inner_(std::move(inner)), tally_(tally)
    {}

    ~CountingTrace() override
    {
        tally_.ops.fetch_add(ops_, std::memory_order_relaxed);
        tally_.ns.fetch_add(ns_, std::memory_order_relaxed);
        if (refs_.empty())
            return;
        std::lock_guard<std::mutex> lk(tally_.mu);
        const size_t room = tally_.capture_cap - std::min(
            tally_.capture_cap, tally_.captured.size());
        const size_t take = std::min(room, refs_.size());
        tally_.captured.insert(tally_.captured.end(), refs_.begin(),
                               refs_.begin() + take);
        if (tally_.captured.size() >= tally_.capture_cap)
            tally_.capture_full = true;
    }

    CountingTrace(const CountingTrace &) = delete;
    CountingTrace &operator=(const CountingTrace &) = delete;

    bool
    next(WarpOp &op) override
    {
        const auto t0 = Clock::now();
        const bool more = inner_->next(op);
        ns_ += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0).count());
        if (more) {
            ++ops_;
            if (op.has_mem &&
                !tally_.capture_full.load(std::memory_order_relaxed))
                refs_.push_back({op.addr, op.is_store});
        }
        return more;
    }

  private:
    std::unique_ptr<WarpTrace> inner_;
    TraceTally &tally_;
    uint64_t ops_ = 0;
    uint64_t ns_ = 0;
    std::vector<MemRef> refs_;
};

} // namespace

void
instrument(wl::Workload &w, TraceTally &tally)
{
    for (mcmgpu::KernelLaunch &l : w.launches) {
        mcmgpu::TraceFactory inner = std::move(l.kernel.make_trace);
        l.kernel.make_trace = [inner = std::move(inner), &tally](
                                  mcmgpu::CtaId cta, mcmgpu::WarpId warp)
            -> std::unique_ptr<WarpTrace> {
            return std::make_unique<CountingTrace>(inner(cta, warp), tally);
        };
    }
}

// ---- JSON text scans --------------------------------------------------------

namespace {

/** Parse the number after `"key":` at @p pos; advances @p pos. */
bool
numberAfter(const std::string &text, const std::string &pat, size_t &pos,
            double &out)
{
    pos = text.find(pat, pos);
    if (pos == std::string::npos)
        return false;
    pos += pat.size();
    const char *begin = text.c_str() + pos;
    char *end = nullptr;
    out = std::strtod(begin, &end);
    if (end == begin)
        out = 0.0;
    return true;
}

} // namespace

bool
firstNumber(const std::string &text, const std::string &key, double &out)
{
    size_t pos = 0;
    return numberAfter(text, "\"" + key + "\": ", pos, out);
}

std::string
firstString(const std::string &text, const std::string &key)
{
    const std::string pat = "\"" + key + "\": \"";
    const size_t begin = text.find(pat);
    if (begin == std::string::npos)
        return "";
    const size_t from = begin + pat.size();
    const size_t end = text.find('"', from);
    return end == std::string::npos ? "" : text.substr(from, end - from);
}

double
sumNumbers(const std::string &text, const std::string &key)
{
    const std::string pat = "\"" + key + "\": ";
    double sum = 0.0, v = 0.0;
    size_t pos = 0;
    while (numberAfter(text, pat, pos, v))
        sum += v;
    return sum;
}

double
hottestLinkUtil(const std::string &fabric_json)
{
    const size_t at = fabric_json.find("\"hottest_link\"");
    if (at == std::string::npos)
        return 0.0;
    size_t pos = at;
    double v = 0.0;
    return numberAfter(fabric_json, "\"utilization\": ", pos, v) ? v : 0.0;
}

} // namespace perfbench
