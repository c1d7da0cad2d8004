/**
 * @file
 * Unit tests for the experiment harness: config/workload fingerprints,
 * memoization identity, speedup pairing, and suite selection helpers.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
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
    GpuConfig a = configs::mcmBasic();
    GpuConfig b = configs::mcmBasic();
    EXPECT_EQ(experiment::configKey(a), experiment::configKey(b));

    b.link_gbps = 1536.0;
    EXPECT_NE(experiment::configKey(a), experiment::configKey(b));

    b = configs::mcmBasic();
    b.page_policy = PagePolicy::FirstTouch;
    EXPECT_NE(experiment::configKey(a), experiment::configKey(b));

    b = configs::mcmBasic();
    b.withL15(8 * MiB, L15Alloc::RemoteOnly);
    EXPECT_NE(experiment::configKey(a), experiment::configKey(b));

    b = configs::mcmBasic();
    b.max_outstanding_per_warp = 2;
    EXPECT_NE(experiment::configKey(a), experiment::configKey(b));

    // The display name must NOT affect the key.
    b = configs::mcmBasic().withName("renamed");
    EXPECT_EQ(experiment::configKey(a), experiment::configKey(b));
}

TEST_F(ExperimentTest, ConfigKeyCoversEngineAndLineSize)
{
    const GpuConfig base = configs::mcmBasic();
    const std::string k = experiment::configKey(base);

    // Default values add nothing, so existing cache entries stay valid.
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
