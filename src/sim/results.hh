/**
 * @file
 * Metrics collected from one (machine, workload) simulation.
 */

#ifndef MCMGPU_SIM_RESULTS_HH
#define MCMGPU_SIM_RESULTS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mcmgpu {

/**
 * How a simulation ended. Anything other than Finished means the
 * metrics describe a truncated run: cycles/IPC are still meaningful
 * ("how far did it get"), speedups against a Finished baseline are not.
 */
enum class RunStatus
{
    Finished,   //!< every kernel retired and the event queue drained
    CycleLimit, //!< cfg.cycle_limit hit with work still in flight
    Stalled,    //!< watchdog detected no forward progress (SimStall)
    Error,      //!< the simulation threw; see stall_diagnostic
    Deadlock,   //!< wait-for graph closed a cycle (FabricDeadlock);
                //!< deterministic, never retried
    Timeout,    //!< per-job wall-clock budget expired (SimTimeout)
};

template <>
inline constexpr std::array kWords<RunStatus>{
    "finished", "cycle_limit", "stalled", "error", "deadlock", "timeout"};

/** Human-readable status name ("finished"/"cycle_limit"/...). */
inline const char *
toString(RunStatus s)
{
    return wordOf(s);
}

/** Outcome of one complete application run on one machine. */
struct RunResult
{
    std::string workload;
    std::string config;

    RunStatus status = RunStatus::Finished;
    /** Watchdog dump (Stalled) or exception text (Error); else empty. */
    std::string stall_diagnostic;

    bool finished() const { return status == RunStatus::Finished; }

    Cycle cycles = 0;               //!< application completion time
    uint64_t warp_instructions = 0;
    uint32_t kernels = 0;

    uint64_t inter_module_bytes = 0; //!< payload injected on the fabric
    uint64_t dram_read_bytes = 0;
    uint64_t dram_write_bytes = 0;

    double l1_hit_rate = 0.0;
    double l15_hit_rate = 0.0;
    double l2_hit_rate = 0.0;

    double energy_chip_j = 0.0;
    double energy_link_j = 0.0;   //!< package or board, per machine kind
    uint64_t link_domain_bytes = 0;

    /** Warp instructions per cycle over the whole run. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(warp_instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /**
     * Average inter-module bandwidth in TB/s (the y-axis of Figures 7,
     * 10 and 14). At 1 GHz, bytes/cycle == GB/s.
     */
    double
    interModuleTBps() const
    {
        return cycles ? static_cast<double>(inter_module_bytes) /
                            static_cast<double>(cycles) / 1000.0
                      : 0.0;
    }

    /** Performance of this run relative to @p baseline (higher=faster). */
    double
    speedupOver(const RunResult &baseline) const
    {
        return cycles ? static_cast<double>(baseline.cycles) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** One link's end-of-run congestion figures (fabric.json mirror). */
struct FabricLinkSummary
{
    std::string name;          //!< topology link name ("ring.cw0", ...)
    uint64_t bytes = 0;        //!< bytes carried (hop-weighted)
    double busy_cycles = 0.0;  //!< service time consumed
    double utilization = 0.0;  //!< busy_cycles / run cycles
};

/**
 * Per-run fabric observability harvested alongside the RunResult when
 * a recorder is attached. Kept OUT of RunResult on purpose: RunResult
 * is what the ResultCache serializes, and the sweep aggregation must
 * not disturb cached-entry compatibility. Cache-hit jobs therefore
 * carry no summary (cached runs re-write no obs artifacts either).
 */
struct FabricRunSummary
{
    bool present = false;
    Cycle cycles = 0;
    /** Copy of the recorder's remote-load latency histogram. */
    std::optional<stats::Histogram> remote_load;
    /** Every named link, in the fabric's deterministic visit order. */
    std::vector<FabricLinkSummary> links;
};

} // namespace mcmgpu

#endif // MCMGPU_SIM_RESULTS_HH
