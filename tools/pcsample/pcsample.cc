/**
 * @file
 * pcsample: a SIGPROF program-counter sampler loaded with LD_PRELOAD,
 * for hosts without perf or valgrind.
 *
 * The process-wide ITIMER_PROF timer raises SIGPROF once per period of
 * CPU time summed over all threads, and the handler records the PC the
 * signal interrupted. Unlike gprof's -pg there is no instrumentation:
 * the program runs its normal -O2 code, and a function's share of the
 * samples is its share of CPU time. At exit every PC is resolved to
 * (object file, link-time address) and the counts are written out, one
 * "count<TAB>object<TAB>0xaddress" line per distinct PC, most-sampled
 * first. tools/pcsample/fold.py folds them to functions or file:line.
 *
 *   LD_PRELOAD=build/tools/libpcsample.so PCSAMPLE_OUT=prof.txt \
 *       build/examples/mcmgpu_cli --workload Kmeans --machine mcm-basic
 *   python3 tools/pcsample/fold.py prof.txt          # by function
 *   python3 tools/pcsample/fold.py --lines prof.txt  # by file:line
 *
 * PCSAMPLE_OUT sets the output path; "%p" in it becomes the pid
 * (default pcsample.%p.txt).
 *
 * Samples are taken only until the process exits normally; a process
 * that dies on a signal or calls _exit() writes nothing.
 */

#include <dlfcn.h>
#include <link.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace {

/** Sampling period in CPU microseconds. The kernel rounds it up to its
 *  timer tick, so this asks for the fastest rate the host gives. */
constexpr long kPeriodUs = 1000;

/** Sample buffer capacity: 2^22 PCs (32 MiB of address space, touched
 *  only as it fills) is over an hour of CPU time at kPeriodUs. */
constexpr size_t kMaxSamples = size_t(1) << 22;

uintptr_t *g_pcs = nullptr;
std::atomic<size_t> g_next{0};

uintptr_t
interruptedPc(const void *uctx)
{
    const auto *uc = static_cast<const ucontext_t *>(uctx);
#if defined(__x86_64__)
    return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
}

/** Async-signal-safe: one lock-free increment and one store. */
void
onProf(int, siginfo_t *, void *uctx)
{
    const size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        g_pcs[i] = interruptedPc(uctx);
}

void
setTimer(long period_us)
{
    itimerval t{};
    t.it_interval.tv_sec = period_us / 1000000;
    t.it_interval.tv_usec = period_us % 1000000;
    t.it_value = t.it_interval;
    setitimer(ITIMER_PROF, &t, nullptr);
}

std::string
outputPath()
{
    const char *env = std::getenv("PCSAMPLE_OUT");
    std::string path = env && *env ? env : "pcsample.%p.txt";
    const std::string pid = std::to_string(getpid());
    for (size_t at; (at = path.find("%p")) != std::string::npos;)
        path.replace(at, 2, pid);
    return path;
}

std::string
mainExecutable()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    return n > 0 ? std::string(buf, static_cast<size_t>(n)) : "?";
}

__attribute__((constructor)) void
start()
{
    g_pcs = static_cast<uintptr_t *>(
        std::calloc(kMaxSamples, sizeof(uintptr_t)));
    if (g_pcs == nullptr)
        return;
    struct sigaction sa{};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    setTimer(kPeriodUs);
}

__attribute__((destructor)) void
stop()
{
    if (g_pcs == nullptr)
        return;
    setTimer(0);
    signal(SIGPROF, SIG_IGN);
    const size_t taken = g_next.load(std::memory_order_relaxed);
    const size_t kept = std::min(taken, kMaxSamples);

    // Resolve each distinct PC to its object and link-time address
    // (PC minus the object's load bias), which nm and addr2line take.
    std::map<uintptr_t, uint64_t> by_pc;
    for (size_t i = 0; i < kept; ++i)
        ++by_pc[g_pcs[i]];
    const std::string exe = mainExecutable();
    std::map<std::pair<std::string, uintptr_t>, uint64_t> by_site;
    for (const auto &[pc, count] : by_pc) {
        Dl_info info{};
        link_map *lm = nullptr;
        std::string object = "?";
        uintptr_t addr = pc;
        if (dladdr1(reinterpret_cast<void *>(pc), &info,
                    reinterpret_cast<void **>(&lm), RTLD_DL_LINKMAP) &&
            lm != nullptr) {
            object = lm->l_name[0] != '\0' ? lm->l_name : exe;
            addr = pc - lm->l_addr;
        }
        by_site[{object, addr}] += count;
    }
    std::vector<std::pair<uint64_t, std::pair<std::string, uintptr_t>>>
        rows;
    rows.reserve(by_site.size());
    for (const auto &[site, count] : by_site)
        rows.push_back({count, site});
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });

    const std::string path = outputPath();
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "pcsample: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "# pcsample samples=%zu dropped=%zu period_us=%ld\n",
                 kept, taken - kept, kPeriodUs);
    for (const auto &[count, site] : rows) {
        std::fprintf(f, "%llu\t%s\t0x%llx\n",
                     static_cast<unsigned long long>(count),
                     site.first.c_str(),
                     static_cast<unsigned long long>(site.second));
    }
    std::fclose(f);
    // g_pcs is left allocated: a signal already in flight on another
    // thread may still store into it while the process winds down.
}

} // namespace
