/**
 * @file
 * Tests for the post-mortem flight recorder and the histogram
 * percentile/merge machinery feeding sweep-level aggregation: ring
 * semantics (wrap, drop accounting, replay order), dump-document
 * validity, Histogram::percentile exactness guarantees, and the
 * end-to-end contract — a run that dies in a fabric deadlock or a
 * wedged link leaves a flight dump whose tail names the same resources
 * as the typed failure, while a healthy run leaves none and cycle
 * counts never move with the recorder on.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "mem/txn.hh"
#include "obs/flight.hh"
#include "obs/options.hh"
#include "obs/recorder.hh"
#include "sim/simulator.hh"
#include "workloads/patterns.hh"
#include "workloads/registry.hh"

namespace mcmgpu {
namespace {

namespace fs = std::filesystem;

using workloads::ArrayRef;
using workloads::Category;
using workloads::KernelSpec;
using workloads::Workload;
using workloads::WorkloadBuilder;

/** A unique empty scratch directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<int> serial{0};
        path_ = (fs::temp_directory_path() /
                 ("mcmgpu-flight-" + tag + "-" +
                  std::to_string(::getpid()) + "-" +
                  std::to_string(serial++)))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// --- Histogram::percentile / merge ----------------------------------------

TEST(HistogramPercentile, EmptyReportsZero)
{
    stats::Histogram h = stats::Histogram::makeLog2("h", 16);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(0.99), 0.0);
}

TEST(HistogramPercentile, SingleValueIsExactAtEveryQuantile)
{
    stats::Histogram h = stats::Histogram::makeLog2("h", 16);
    h.record(37);
    for (double p : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(h.percentile(p), 37.0) << p;
}

TEST(HistogramPercentile, DegenerateDistributionIsExact)
{
    // Everything at one value: min == max, so the bucket walk is
    // bypassed and the quantile is the value itself, not a bucket
    // midpoint.
    stats::Histogram h = stats::Histogram::makeLog2("h", 16);
    h.record(100, 500);
    EXPECT_EQ(h.percentile(0.5), 100.0);
    EXPECT_EQ(h.percentile(0.999), 100.0);
}

TEST(HistogramPercentile, EndpointsClampToMinAndMax)
{
    stats::Histogram h = stats::Histogram::makeLog2("h", 16);
    h.record(4);
    h.record(1000);
    EXPECT_EQ(h.percentile(0.0), 4.0);
    EXPECT_EQ(h.percentile(1.0), 1000.0);
    // Interior quantiles stay inside the observed range.
    for (double p : {0.25, 0.5, 0.75, 0.95}) {
        const double v = h.percentile(p);
        EXPECT_GE(v, 4.0) << p;
        EXPECT_LE(v, 1000.0) << p;
    }
}

TEST(HistogramPercentile, QuantilesAreMonotonic)
{
    stats::Histogram h = stats::Histogram::makeLog2("h", 20);
    for (uint64_t v = 1; v <= 1024; ++v)
        h.record(v);
    double prev = 0.0;
    for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
        const double v = h.percentile(p);
        EXPECT_GE(v, prev) << p;
        prev = v;
    }
    // The uniform 1..1024 median lands in the right neighbourhood
    // (log2 buckets are coarse; exactness is not the contract).
    EXPECT_GT(h.percentile(0.5), 256.0);
    EXPECT_LT(h.percentile(0.5), 1024.0);
}

TEST(HistogramMerge, SameRecipeAddsBucketwise)
{
    stats::Histogram a = stats::Histogram::makeLog2("a", 16);
    stats::Histogram b = stats::Histogram::makeLog2("b", 16);
    a.record(3, 10);
    b.record(3, 5);
    b.record(900, 2);
    a.merge(b);
    EXPECT_EQ(a.count(), 17u);
    EXPECT_EQ(a.sum(), 3u * 15 + 900u * 2);
    EXPECT_EQ(a.minValue(), 3u);
    EXPECT_EQ(a.maxValue(), 900u);
    // Bucket of 3 carries 15 samples after the merge.
    EXPECT_EQ(a.buckets()[a.bucketOf(3)], 15u);
}

TEST(HistogramMerge, MergingEmptyIsANoOp)
{
    stats::Histogram a = stats::Histogram::makeLog2("a", 16);
    stats::Histogram b = stats::Histogram::makeLog2("b", 16);
    a.record(7);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.percentile(0.5), 7.0);
}

TEST(HistogramMerge, MismatchedRecipesRebucketByValue)
{
    stats::Histogram a = stats::Histogram::makeLog2("a", 16);
    stats::Histogram lin = stats::Histogram::makeLinear("lin", 10, 8);
    lin.record(25, 4); // linear bucket 2 (lo = 20)
    a.merge(lin);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 100u);
    // Rebucketing goes through bucketLo(2) == 20 -> log2 bucket of 20.
    EXPECT_EQ(a.buckets()[a.bucketOf(20)], 4u);
    EXPECT_EQ(a.minValue(), 25u);
    EXPECT_EQ(a.maxValue(), 25u);
}

// --- FlightRecorder ring --------------------------------------------------

TEST(FlightRecorder, RetainsEverythingBelowCapacity)
{
    obs::FlightRecorder fr(8);
    fr.record(10, "a");
    fr.record(20, "b");
    EXPECT_EQ(fr.capacity(), 8u);
    EXPECT_EQ(fr.size(), 2u);
    EXPECT_EQ(fr.dropped(), 0u);
    EXPECT_EQ(fr.total(), 2u);
    const auto evs = fr.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].what, "a");
    EXPECT_EQ(evs[1].what, "b");
    EXPECT_EQ(evs[0].seq, 0u);
    EXPECT_EQ(evs[1].seq, 1u);
}

TEST(FlightRecorder, WrapsAndKeepsTheNewestInOrder)
{
    obs::FlightRecorder fr(4);
    for (int i = 0; i < 10; ++i)
        fr.record(Cycle(i), "e" + std::to_string(i));
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.dropped(), 6u);
    EXPECT_EQ(fr.total(), 10u);
    const auto evs = fr.events();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest-first replay of the newest four events.
    EXPECT_EQ(evs.front().what, "e6");
    EXPECT_EQ(evs.back().what, "e9");
    for (size_t i = 1; i < evs.size(); ++i) {
        EXPECT_GT(evs[i].seq, evs[i - 1].seq);
        EXPECT_GE(evs[i].when, evs[i - 1].when);
    }
}

TEST(FlightRecorder, ZeroCapacityIsClampedNotFatal)
{
    obs::FlightRecorder fr(0);
    EXPECT_EQ(fr.capacity(), 1u);
    fr.record(1, "x");
    fr.record(2, "y");
    EXPECT_EQ(fr.size(), 1u);
    EXPECT_EQ(fr.events().front().what, "y");
}

TEST(FlightRecorder, DumpIsValidJsonWithHostileText)
{
    obs::FlightRecorder fr(4);
    fr.record(5, "quote\" backslash\\ newline\n end");
    std::ostringstream os;
    fr.dumpJson(os, "deadlock", "CYCLE: vc0:gpm0->gpm1 \"x\"");
    json::ValidationResult res = json::validate(os.str());
    EXPECT_TRUE(res) << res.error << " at " << res.offset << "\n"
                     << os.str();
    EXPECT_NE(os.str().find("\"mcmgpu-flight/1\""), std::string::npos);
    EXPECT_NE(os.str().find("\"dropped\": 0"), std::string::npos);
}

TEST(FlightRecorder, EveryRecordKindKeepsItsText)
{
    // One event of each kind, with the exact text the dumps have always
    // carried for these fields: lines of real deadlock dumps, and for
    // the response VC the pool name the stall diagnostic prints.
    obs::FlightRecorder fr(16);
    fr.phase(1390, 43, false, 2, 0, wordOf(TxnPhase::FabResp),
             wordOf(TxnPhase::Complete));
    fr.phase(651, 32768, true, 0, 0, wordOf(TxnPhase::L2Fill),
             wordOf(TxnPhase::Complete));
    fr.mshrWait(558, 16816, 0, 4, 4);
    fr.vcPark(312, 2, 0, 0, 1);
    fr.vcPark(320, 7, 1, 2, 0);
    fr.vcHandoff(469, 9, 0, 2, 1);
    fr.mshrHandoff(502, 26, 2);
    fr.record(1522, "run failed: deadlock — wedged");

    const std::vector<std::string> want = {
        "txn 43 load gpm2->gpm0: fab_resp -> complete",
        "txn 32768 store gpm0->gpm0: l2_fill -> complete",
        "txn 16816 waiting on mshr:gpm0 (4/4 in use)",
        "txn 2 parked on vc0:gpm0->gpm1 (no credit free)",
        "txn 7 parked on vc1:gpm2->gpm0 (no credit free)",
        "credit on vc0:gpm2->gpm1 handed to txn 9",
        "mshr:gpm2 handed to txn 26",
        "run failed: deadlock — wedged",
    };
    const auto evs = fr.events();
    ASSERT_EQ(evs.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(evs[i].what, want[i]) << i;
        EXPECT_EQ(evs[i].seq, i);
    }
    EXPECT_EQ(evs.front().when, 1390u);
    EXPECT_EQ(evs.back().when, 1522u);

    // The pool names in the text are the wait-for graph's names.
    EXPECT_EQ(obs::vcPoolName(1, 2, 0), "vc1:gpm2->gpm0");
    EXPECT_EQ(obs::mshrPoolName(2), "mshr:gpm2");
}

TEST(FlightRecorder, DumpLayoutIsPinned)
{
    obs::FlightRecorder fr(2);
    fr.mshrHandoff(9, 4, 1);
    fr.phase(10, 5, false, 1, 3, wordOf(TxnPhase::L15),
             wordOf(TxnPhase::FabReq));
    fr.record(11, "run failed: stalled");
    std::ostringstream os;
    fr.dumpJson(os, "stalled", "why");
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"schema\": \"mcmgpu-flight/1\",\n"
              "  \"status\": \"stalled\",\n"
              "  \"reason\": \"why\",\n"
              "  \"capacity\": 2,\n"
              "  \"recorded\": 3,\n"
              "  \"dropped\": 1,\n"
              "  \"events\": [\n"
              "    {\"cycle\": 10, \"seq\": 1, \"what\": "
              "\"txn 5 load gpm1->gpm3: l15 -> fab_req\"},\n"
              "    {\"cycle\": 11, \"seq\": 2, \"what\": "
              "\"run failed: stalled\"}\n"
              "  ]\n"
              "}\n");
}

TEST(FlightRecorder, BinaryAndTextEventsWrapTogether)
{
    // Slots alternate between text and binary events, so after the
    // wrap a binary record sits where text was and vice versa.
    obs::FlightRecorder fr(4);
    fr.record(0, "t0");                               // slot 0
    fr.phase(1, 1, false, 0, 1, "l15", "fab_req");    // slot 1
    fr.record(2, "t2");                               // slot 2
    fr.mshrWait(3, 3, 1, 8, 8);                       // slot 3
    fr.phase(4, 4, true, 2, 3, "l15", "fab_req");     // over "t0"
    fr.record(5, "t5");                               // over a phase
    fr.vcHandoff(6, 6, 0, 3, 2);                      // over "t2"

    EXPECT_EQ(fr.total(), 7u);
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.dropped(), 3u);
    const auto evs = fr.events();
    ASSERT_EQ(evs.size(), 4u);
    const std::vector<std::string> want = {
        "txn 3 waiting on mshr:gpm1 (8/8 in use)",
        "txn 4 store gpm2->gpm3: l15 -> fab_req",
        "t5",
        "credit on vc0:gpm3->gpm2 handed to txn 6",
    };
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(evs[i].what, want[i]) << i;
        EXPECT_EQ(evs[i].seq, 3 + i);
        EXPECT_EQ(evs[i].when, Cycle(3 + i));
    }
}

// --- End-to-end: failed runs dump, healthy runs do not --------------------

class FlightIntegration : public ::testing::Test
{
  protected:
    void SetUp() override { setQuietLogging(true); }
    void TearDown() override { obs::setOptions(obs::Options{}); }

    /** Remote-heavy streaming kernel (same shape as test_deadlock). */
    static Workload
    stream(uint32_t ctas = 512)
    {
        WorkloadBuilder b("fstream", "fstream",
                          Category::MemoryIntensive);
        ArrayRef in{b.alloc(8 * MiB), 8 * MiB};
        ArrayRef out{b.alloc(8 * MiB), 8 * MiB};
        KernelSpec k;
        k.name = "fstream";
        k.num_ctas = ctas;
        k.warps_per_cta = 4;
        k.items_per_warp = 8;
        k.compute_per_item = 2;
        k.arrays = {in, out};
        k.accesses = {workloads::part(0), workloads::part(1, true)};
        k.seed = 3;
        b.launch(k, 2);
        return b.build();
    }

    /** 1 shared VC, minimal credits: the canonical deadlock machine. */
    static GpuConfig
    prone()
    {
        GpuConfig cfg = configs::mcmBasic();
        cfg.withMemModel(MemModel::Staged, 4);
        cfg.withFabricVcs(1, 1);
        return cfg;
    }

    static void
    enableFlight(const std::string &dir, uint32_t capacity)
    {
        obs::Options opt;
        opt.flight_recorder = capacity;
        opt.out_dir = dir;
        obs::setOptions(opt);
    }

    static std::string
    flightPath(const std::string &dir, const GpuConfig &cfg,
               const Workload &w)
    {
        obs::Options opt = obs::options();
        obs::Recorder namer(opt, cfg.name, w.abbr, cfg.num_modules);
        return dir + "/" +
               fs::path(namer.outputPath("flight")).filename().string();
    }
};

TEST_F(FlightIntegration, DeadlockDumpNamesTheResourceCycle)
{
    TempDir dir("deadlock");
    enableFlight(dir.str(), 64);

    GpuConfig cfg = prone();
    Workload w = stream();
    RunResult r = Simulator::run(cfg, w);
    ASSERT_EQ(r.status, RunStatus::Deadlock) << r.stall_diagnostic;

    const std::string path = flightPath(dir.str(), cfg, w);
    ASSERT_TRUE(fs::exists(path)) << path;
    const std::string doc = slurp(path);
    json::ValidationResult res = json::validate(doc);
    ASSERT_TRUE(res) << res.error << " at " << res.offset;
    EXPECT_NE(doc.find("\"mcmgpu-flight/1\""), std::string::npos);
    EXPECT_NE(doc.find("\"status\": \"deadlock\""), std::string::npos);

    // The acceptance contract: the dump's tail references the same
    // named VC pools as the FabricDeadlock resource cycle. Pull one
    // pool name out of the typed diagnostic and demand the events
    // mention it too.
    const size_t pool_at = r.stall_diagnostic.find("vc0:gpm");
    ASSERT_NE(pool_at, std::string::npos) << r.stall_diagnostic;
    size_t pool_end = pool_at;
    while (pool_end < r.stall_diagnostic.size() &&
           !std::isspace(
               static_cast<unsigned char>(r.stall_diagnostic[pool_end])))
        ++pool_end;
    const std::string pool =
        r.stall_diagnostic.substr(pool_at, pool_end - pool_at);
    EXPECT_NE(doc.find(pool), std::string::npos)
        << "flight dump must reference cycle participant " << pool;
    EXPECT_NE(doc.find("parked on vc0:gpm"), std::string::npos);
    // The final event carries the typed failure itself.
    EXPECT_NE(doc.find("run failed: deadlock"), std::string::npos);
    EXPECT_NE(doc.find("CYCLE:"), std::string::npos);
}

TEST_F(FlightIntegration, WedgedLinkDumpNamesTheLink)
{
    TempDir dir("wedge");
    enableFlight(dir.str(), 64);

    GpuConfig cfg = configs::mcmBasic();
    cfg.fault.injectLinkErrors(1.0);
    cfg.validate();
    Workload w = stream();
    RunResult r = Simulator::run(cfg, w);
    ASSERT_EQ(r.status, RunStatus::Stalled) << r.stall_diagnostic;
    ASSERT_NE(r.stall_diagnostic.find("LinkWedged"), std::string::npos);

    const std::string path = flightPath(dir.str(), cfg, w);
    ASSERT_TRUE(fs::exists(path)) << path;
    const std::string doc = slurp(path);
    json::ValidationResult res = json::validate(doc);
    ASSERT_TRUE(res) << res.error << " at " << res.offset;
    EXPECT_NE(doc.find("\"status\": \"stalled\""), std::string::npos);
    // The final event embeds the diagnostic, which names the wedged
    // link ("ring.cwN" on the mcm-basic ring).
    EXPECT_NE(doc.find("LinkWedged"), std::string::npos);
    EXPECT_NE(doc.find("ring."), std::string::npos);
}

TEST_F(FlightIntegration, HealthyRunLeavesNoDump)
{
    TempDir dir("healthy");
    enableFlight(dir.str(), 64);

    GpuConfig cfg = configs::mcmBasic();
    cfg.withMemModel(MemModel::Staged, 16);
    cfg.withFabricVcs(2, 64);
    Workload w = stream(128);
    RunResult r = Simulator::run(cfg, w);
    ASSERT_EQ(r.status, RunStatus::Finished) << r.stall_diagnostic;
    EXPECT_FALSE(fs::exists(flightPath(dir.str(), cfg, w)));
}

TEST_F(FlightIntegration, RecorderDoesNotPerturbCyclesOrOutcome)
{
    // Bit-identity discipline: the failure forms at the same cycle
    // with the flight recorder on and off.
    GpuConfig cfg = prone();
    Workload w = stream();
    obs::setOptions(obs::Options{});
    RunResult off = Simulator::run(cfg, w);

    TempDir dir("identity");
    enableFlight(dir.str(), 32);
    RunResult on = Simulator::run(cfg, w);

    EXPECT_EQ(off.status, RunStatus::Deadlock);
    EXPECT_EQ(on.status, off.status);
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.stall_diagnostic, off.stall_diagnostic);
}

} // namespace
} // namespace mcmgpu
