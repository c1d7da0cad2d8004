/**
 * @file
 * Unit tests for the experiment harness: config/workload fingerprints,
 * memoization identity, speedup pairing, and suite selection helpers.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/units.hh"
#include "sim/experiment.hh"

namespace mcmgpu {
namespace {

class ExperimentTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setQuietLogging(true);
        experiment::setProgress(false);
        experiment::setCacheDir(""); // no disk cache inside unit tests
    }
};

TEST_F(ExperimentTest, ConfigKeyDistinguishesTimingFields)
{
    // One row per field that can change a run: perturbing it must move
    // the key. A field added to GpuConfig belongs in configKey and here.
    using Edit = std::function<void(GpuConfig &)>;
    const std::vector<std::pair<const char *, Edit>> rows = {
        {"num_modules", [](GpuConfig &c) { c.num_modules = 8; }},
        {"sms_per_module", [](GpuConfig &c) { c.sms_per_module = 32; }},
        {"partitions_per_module",
         [](GpuConfig &c) { c.partitions_per_module = 2; }},
        {"max_warps_per_sm", [](GpuConfig &c) { c.max_warps_per_sm = 32; }},
        {"max_ctas_per_sm", [](GpuConfig &c) { c.max_ctas_per_sm = 8; }},
        {"sm_issue_width", [](GpuConfig &c) { c.sm_issue_width = 2; }},
        {"max_outstanding_per_warp",
         [](GpuConfig &c) { c.max_outstanding_per_warp = 2; }},
        {"l1.size_bytes", [](GpuConfig &c) { c.l1.size_bytes *= 2; }},
        {"l1.line_bytes", [](GpuConfig &c) { c.l1.line_bytes = 64; }},
        {"l1.ways", [](GpuConfig &c) { c.l1.ways = 8; }},
        {"l1.hit_latency", [](GpuConfig &c) { c.l1.hit_latency += 1; }},
        {"l15.size_bytes", [](GpuConfig &c) { c.l15.size_bytes = MiB; }},
        {"l15.line_bytes", [](GpuConfig &c) { c.l15.line_bytes = 64; }},
        {"l15.ways", [](GpuConfig &c) { c.l15.ways = 8; }},
        {"l15.hit_latency", [](GpuConfig &c) { c.l15.hit_latency += 1; }},
        {"l2.size_bytes", [](GpuConfig &c) { c.l2.size_bytes *= 2; }},
        {"l2.line_bytes", [](GpuConfig &c) { c.l2.line_bytes = 64; }},
        {"l2.ways", [](GpuConfig &c) { c.l2.ways = 8; }},
        {"l2.hit_latency", [](GpuConfig &c) { c.l2.hit_latency += 1; }},
        {"l15_total_bytes",
         [](GpuConfig &c) { c.l15_total_bytes = 8 * MiB; }},
        {"l15_alloc", [](GpuConfig &c) { c.l15_alloc = L15Alloc::All; }},
        {"l15_miss_penalty", [](GpuConfig &c) { c.l15_miss_penalty += 1; }},
        {"dram_total_gbps", [](GpuConfig &c) { c.dram_total_gbps += 0.5; }},
        {"dram_latency_ns", [](GpuConfig &c) { c.dram_latency_ns += 0.5; }},
        {"channels_per_partition",
         [](GpuConfig &c) { c.channels_per_partition = 4; }},
        {"dram_turnaround_cycles",
         [](GpuConfig &c) { c.dram_turnaround_cycles = 8; }},
        {"dram_write_drain", [](GpuConfig &c) { c.dram_write_drain = 16; }},
        {"link_gbps", [](GpuConfig &c) { c.link_gbps = 768.0000001; }},
        {"link_hop_cycles", [](GpuConfig &c) { c.link_hop_cycles = 64; }},
        {"board_level_links",
         [](GpuConfig &c) { c.board_level_links = true; }},
        {"topology", [](GpuConfig &c) { c.topology = "mesh2d"; }},
        {"pkg_link_gbps", [](GpuConfig &c) { c.pkg_link_gbps = 512.0; }},
        {"pkg_link_hop_cycles",
         [](GpuConfig &c) { c.pkg_link_hop_cycles = 128; }},
        {"route_policy",
         [](GpuConfig &c) { c.route_policy = RoutePolicy::Adaptive; }},
        {"mem_model", [](GpuConfig &c) { c.mem_model = MemModel::Staged; }},
        {"remote_mshrs", [](GpuConfig &c) { c.remote_mshrs = 16; }},
        {"fabric_vcs", [](GpuConfig &c) { c.fabric_vcs = 2; }},
        {"vc_credits", [](GpuConfig &c) { c.vc_credits = 32; }},
        {"page_policy",
         [](GpuConfig &c) { c.page_policy = PagePolicy::FirstTouch; }},
        {"page_bytes", [](GpuConfig &c) { c.page_bytes = 64 * KiB; }},
        {"interleave_bytes", [](GpuConfig &c) { c.interleave_bytes = 512; }},
        {"cta_sched",
         [](GpuConfig &c) { c.cta_sched = CtaSchedPolicy::DynamicBatch; }},
        {"kernel_launch_cycles",
         [](GpuConfig &c) { c.kernel_launch_cycles = 0; }},
        {"fault.seed", [](GpuConfig &c) { c.fault.withSeed(7); }},
        {"fault.link_retry_cycles",
         [](GpuConfig &c) { c.fault.link_retry_cycles = 32; }},
        {"fault.swept_sms", [](GpuConfig &c) { c.fault.sweepSm(0, 0); }},
        {"fault.link_faults", [](GpuConfig &c) { c.fault.derateLinks(0.5); }},
        {"fault.dead_partitions",
         [](GpuConfig &c) { c.fault.killPartition(1); }},
        {"watchdog_cycles", [](GpuConfig &c) { c.watchdog_cycles = 0; }},
        {"cycle_limit", [](GpuConfig &c) { c.cycle_limit = 1000; }},
        {"sim_threads 1->2", [](GpuConfig &c) { c.withSimThreads(2); }},
    };

    const GpuConfig base = configs::mcmBasic();
    const std::string k = experiment::configKey(base);
    std::set<std::string> keys = {k};
    for (const auto &[field, edit] : rows) {
        GpuConfig c = base;
        edit(c);
        const std::string key = experiment::configKey(c);
        EXPECT_NE(key, k) << field;
        // Each perturbation lands on its own key: no two fields alias.
        EXPECT_TRUE(keys.insert(key).second) << field;
    }

    // The display name never changes a run.
    EXPECT_EQ(experiment::configKey(GpuConfig(base).withName("renamed")), k);
}

TEST_F(ExperimentTest, ConfigKeyCoversEngineAndLineSize)
{
    const GpuConfig base = configs::mcmBasic();
    const std::string k = experiment::configKey(base);

    // Restating the serial engine leaves the key alone.
    GpuConfig b = base;
    b.withSimThreads(1);
    EXPECT_EQ(experiment::configKey(b), k);

    // Any parallel engine differs from serial; N >= 2 runs are
    // byte-identical to one another, so they share a key.
    GpuConfig p2 = base;
    p2.withSimThreads(2);
    GpuConfig p4 = base;
    p4.withSimThreads(4);
    EXPECT_NE(experiment::configKey(p2), k);
    EXPECT_EQ(experiment::configKey(p2), experiment::configKey(p4));

    // A line-size change on any level moves the key, and each level
    // lands on a distinct key.
    std::set<std::string> keys = {k};
    for (CacheGeometry GpuConfig::*level :
         {&GpuConfig::l1, &GpuConfig::l15, &GpuConfig::l2}) {
        b = base;
        (b.*level).line_bytes = 64;
        EXPECT_TRUE(keys.insert(experiment::configKey(b)).second);
    }
}

TEST_F(ExperimentTest, ConfigKeysDifferAcrossPresets)
{
    std::vector<std::string> keys = {
        experiment::configKey(configs::mcmBasic()),
        experiment::configKey(configs::mcmOptimized()),
        experiment::configKey(configs::monolithicUnbuildable()),
        experiment::configKey(configs::monolithicBuildableMax()),
        experiment::configKey(configs::multiGpuBaseline()),
        experiment::configKey(configs::multiGpuOptimized()),
    };
    for (size_t i = 0; i < keys.size(); ++i) {
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    }
}

TEST_F(ExperimentTest, WorkloadKeysUniqueAcrossSuite)
{
    std::set<std::string> keys;
    for (const workloads::Workload &w : workloads::allWorkloads())
        EXPECT_TRUE(keys.insert(experiment::workloadKey(w)).second)
            << w.abbr;
}

TEST_F(ExperimentTest, MemoizationReturnsSameObject)
{
    const workloads::Workload *w = workloads::findByAbbr("TSP");
    ASSERT_NE(w, nullptr);
    const RunResult &a = experiment::run(configs::mcmBasic(), *w);
    const RunResult &b = experiment::run(configs::mcmBasic(), *w);
    EXPECT_EQ(&a, &b);
    EXPECT_GT(a.cycles, 0u);
}

TEST_F(ExperimentTest, SpeedupsPairByWorkload)
{
    RunResult x, y;
    x.workload = "A";
    x.cycles = 100;
    y.workload = "A";
    y.cycles = 200;
    std::vector<RunResult> test{x}, base{y};
    auto s = experiment::speedups(test, base);
    ASSERT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s[0], 2.0);

    base[0].workload = "B";
    EXPECT_ANY_THROW(experiment::speedups(test, base));
}

TEST_F(ExperimentTest, SuiteSelectors)
{
    EXPECT_EQ(experiment::everyWorkload().size(), 48u);
    EXPECT_EQ(experiment::highParallelismWorkloads().size(), 33u);
}

TEST_F(ExperimentTest, RunManyPreservesOrder)
{
    auto ws = workloads::byCategory(
        workloads::Category::LimitedParallelism);
    std::vector<const workloads::Workload *> two{ws[0], ws[1]};
    auto rs = experiment::runMany(configs::monolithic(32), two);
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_EQ(rs[0].workload, ws[0]->abbr);
    EXPECT_EQ(rs[1].workload, ws[1]->abbr);
}

TEST(RunResult, DerivedMetrics)
{
    RunResult r;
    r.cycles = 1000;
    r.warp_instructions = 2500;
    r.inter_module_bytes = 1'000'000;
    EXPECT_DOUBLE_EQ(r.ipc(), 2.5);
    EXPECT_DOUBLE_EQ(r.interModuleTBps(), 1.0);
    RunResult base;
    base.cycles = 2000;
    EXPECT_DOUBLE_EQ(r.speedupOver(base), 2.0);

    RunResult zero;
    EXPECT_DOUBLE_EQ(zero.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(zero.interModuleTBps(), 0.0);
}

} // namespace
} // namespace mcmgpu
