/**
 * @file
 * Unit tests for the experiment harness: config/workload fingerprints,
 * memoization identity, speedup pairing, and suite selection helpers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <random>
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

/** Moves @p v to a neighbouring value of its type. */
template <class T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        v += "x";
    else if constexpr (!kWords<T>.empty())
        v = static_cast<T>((static_cast<size_t>(v) + 1) %
                           kWords<T>.size());
    else if constexpr (std::is_floating_point_v<T>)
        v = std::nextafter(v, std::numeric_limits<T>::infinity());
    else
        v = v == std::numeric_limits<T>::max() ? v - 1 : v + 1;
}

TEST_F(ExperimentTest, ConfigKeyDistinguishesTimingFields)
{
    // Every field visitFields() names, moved to a neighbouring value
    // (the smallest double step tests that doubles print round-trip
    // exact), plus what configKey() appends itself: each edit must
    // move the key, and to a key of its own.
    using Edit = std::function<void(GpuConfig &)>;
    std::vector<std::pair<std::string, Edit>> rows = {
        {"fault.swept_sms", [](GpuConfig &c) { c.fault.sweepSm(0, 0); }},
        {"fault.link_faults", [](GpuConfig &c) { c.fault.derateLinks(0.5); }},
        {"fault.dead_partitions",
         [](GpuConfig &c) { c.fault.killPartition(1); }},
        {"sim_threads 1->2", [](GpuConfig &c) { c.withSimThreads(2); }},
    };
    const GpuConfig base = configs::mcmBasic();
    visitFields(base, [&rows](const FieldSpec &f, const auto &) {
        rows.emplace_back(f.key, [n = rows.size() - 4](GpuConfig &c) {
            size_t k = 0;
            visitFields(c, [&](const FieldSpec &, auto &v) {
                if (k++ == n)
                    perturb(v);
            });
        });
    });

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

/** Converts to any member type, so T{AnyMember{}...} counts the
 *  members of aggregate T (the boost.pfr idiom). */
struct AnyMember
{
    template <class T>
    operator T() const;
};

template <class T, class... A>
constexpr size_t
memberCount()
{
    if constexpr (requires { T{A{}..., AnyMember{}}; })
        return memberCount<T, A..., AnyMember>();
    else
        return sizeof...(A);
}

TEST_F(ExperimentTest, VisitFieldsCoversEveryMember)
{
    // Visited keys per top-level member ("l1.ways" counts for "l1"),
    // each key and each flag named once.
    std::map<std::string, size_t> members;
    std::set<std::string> names;
    GpuConfig cfg;
    visitFields(cfg, [&](const FieldSpec &f, const auto &) {
        const std::string key = f.key;
        ++members[key.substr(0, key.find('.'))];
        EXPECT_TRUE(names.insert(key).second) << key;
        if (f.flag) {
            EXPECT_TRUE(names.insert(f.flag).second) << f.flag;
        }
    });
    // Deleting any visitor line, or adding a member without one, breaks
    // a count. Not visited: the display name and sim_threads at the top
    // level, the three fault-plan lists inside `fault`.
    EXPECT_EQ(members.size() + 2, memberCount<GpuConfig>());
    for (const char *level : {"l1", "l15", "l2"})
        EXPECT_EQ(members[level], memberCount<CacheGeometry>()) << level;
    EXPECT_EQ(members["fault"] + 3, memberCount<FaultPlan>());
}

/** A random value of a flagged field's type. */
template <class T>
T
randomValue(std::mt19937_64 &rng)
{
    if constexpr (std::is_same_v<T, std::string>) {
        std::string s(1 + rng() % 12, ' ');
        for (char &ch : s)
            ch = static_cast<char>('!' + rng() % 94);
        return s;
    } else if constexpr (!kWords<T>.empty()) {
        return static_cast<T>(rng() % kWords<T>.size());
    } else if constexpr (std::is_floating_point_v<T>) {
        // Any finite bit pattern, or a plain value like a flag's.
        for (T v = std::bit_cast<T>(rng());; v = std::bit_cast<T>(rng())) {
            if (std::isfinite(v))
                return rng() % 2 ? v : static_cast<T>(rng() % 100000) / 8;
        }
    } else {
        const T edges[] = {0, 1, std::numeric_limits<T>::max()};
        switch (rng() % 3) {
          case 0: return edges[rng() % 3];
          case 1: return static_cast<T>(rng() % 100000);
          default: return static_cast<T>(rng());
        }
    }
}

TEST(FlagParser, AcceptsExactlyTheValidValues)
{
    // For every flagged field, a fixed-seed stream of valid values that
    // must print and parse back unchanged, each followed by broken
    // variants of its text: garbage, trailing junk, a blank or sign in
    // front, and out-of-range numbers. Strings take any text; words
    // take only their own; numbers take only plain digits (a sign and
    // an exponent on doubles) that land in range and finite.
    std::mt19937_64 rng(16);
    GpuConfig cfg;
    size_t flagged = 0;
    visitFields(cfg, [&](const FieldSpec &f, auto &field) {
        using T = std::decay_t<decltype(field)>;
        if (!f.flag)
            return;
        ++flagged;
        constexpr bool any_text = std::is_same_v<T, std::string>;
        constexpr bool is_double = std::is_floating_point_v<T>;
        // Out of range; for a word type, just not a word.
        std::string too_big = is_double ? "1e999" : "0";
        if constexpr (!any_text && !is_double && kWords<T>.empty()) {
            // max + 1 in decimal: no T holds it.
            too_big = std::to_string(std::numeric_limits<T>::max());
            size_t d = too_big.size();
            while (d > 0 && too_big[d - 1] == '9')
                too_big[--d] = '0';
            if (d == 0)
                too_big.insert(0, "1");
            else
                ++too_big[d - 1];
        }
        for (int n = 0; n < 300; ++n) {
            const T v = randomValue<T>(rng);
            std::string text;
            experiment::printValue(text, v);
            T back{};
            ASSERT_TRUE(experiment::parseValue(text, back))
                << f.flag << " '" << text << "'";
            EXPECT_EQ(back, v) << f.flag << " '" << text << "'";

            const bool negative_ok = is_double && text[0] != '-';
            const std::pair<std::string, bool> cases[] = {
                {"", any_text},
                {"abc", any_text},
                {text + "x", any_text},
                {text + " ", any_text},
                {" " + text, any_text},
                {"+" + text, any_text},
                {"-" + text, any_text || negative_ok},
                {text.substr(0, rng() % text.size()) + "z" + text,
                 any_text},
                {too_big, any_text},
                {"nan", any_text},
                {"inf", any_text},
            };
            for (const auto &[bad, ok] : cases) {
                T out{};
                EXPECT_EQ(experiment::parseValue(bad, out), ok)
                    << f.flag << " '" << bad << "'";
            }
        }
    });
    EXPECT_EQ(flagged, 17u);
}

TEST(MachineEdits, ReplayFlagsInOrderOnAPreset)
{
    const char *args[] = {"cli",         "--link-gbps",    "96",
                          "--topology",  "mesh2d:2x2",     "--route-policy",
                          "adaptive",    "--link-gbps",    "100",
                          "--sched",     "dynamic",        "--no-such-flag"};
    char **argv = const_cast<char **>(args);
    const int argc = static_cast<int>(std::size(args));
    experiment::MachineEdits edits;
    int i = 1;
    for (; i < argc && edits.parse(argc, argv, i); ++i) {
    }
    EXPECT_EQ(i, argc - 1); // the unknown flag is left unconsumed
    EXPECT_EQ(edits.tag, "+mesh2d:2x2+adaptive");

    GpuConfig c;
    ASSERT_TRUE(edits.apply("mcm-basic", c));
    GpuConfig want = configs::mcmBasic()
                         .withLinkGbps(100)
                         .withTopology("mesh2d:2x2")
                         .withRoutePolicy(RoutePolicy::Adaptive)
                         .withSched(CtaSchedPolicy::DynamicBatch);
    EXPECT_EQ(experiment::configKey(c), experiment::configKey(want));
    EXPECT_FALSE(edits.apply("no-such-machine", c));
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
