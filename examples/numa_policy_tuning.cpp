/**
 * @file
 * Example: exploring the NUMA policy space.
 *
 * Crosses every CTA scheduling policy with every page placement policy
 * on one workload and prints the full matrix — the experiment that
 * motivates the paper's central observation: distributed scheduling
 * and first-touch placement are nearly useless alone and powerful
 * together (Figure 16).
 *
 *   ./build/examples/numa_policy_tuning [workload-abbr]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/config.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "sim/simulator.hh"
#include "workloads/registry.hh"

using namespace mcmgpu;

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    const std::string abbr = argc > 1 ? argv[1] : "CoMD";
    const workloads::Workload *w = workloads::findByAbbr(abbr);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", abbr.c_str());
        return 1;
    }

    std::printf("NUMA policy matrix for %s (%s), on the MCM-GPU with an "
                "8MB remote-only L1.5:\n\n",
                w->name.c_str(), w->abbr.c_str());

    RunResult base = Simulator::run(configs::mcmBasic(), *w);

    Table t({"CTA scheduler", "Page placement", "Cycles",
             "Inter-GPM TB/s", "Speedup vs baseline"});
    for (CtaSchedPolicy sched : {CtaSchedPolicy::CentralizedRR,
                                 CtaSchedPolicy::DistributedBatch}) {
        for (PagePolicy page : {PagePolicy::FineInterleave,
                                PagePolicy::RoundRobinPage,
                                PagePolicy::FirstTouch}) {
            GpuConfig cfg = configs::mcmWithL15(8 * MiB)
                                .withSched(sched)
                                .withPagePolicy(page);
            cfg.name = std::string(wordOf(sched)) + "/" + wordOf(page);
            RunResult r = Simulator::run(cfg, *w);
            t.addRow({wordOf(sched), wordOf(page),
                      std::to_string(r.cycles),
                      Table::fmt(r.interModuleTBps(), 3),
                      Table::fmt(r.speedupOver(base), 2) + "x"});
        }
    }
    t.print(std::cout);

    std::printf("\nFirst touch only pays off when the distributed "
                "scheduler pins the same CTA range\nto the same GPM on "
                "every kernel launch (Figure 12's cross-kernel "
                "locality).\n");
    return 0;
}
