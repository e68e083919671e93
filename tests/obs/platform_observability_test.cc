/**
 * @file
 * Integration tests of the Platform observability API: deterministic
 * metrics snapshots (byte-identical on a same-config re-run), data
 * counters invariant across crypto thread widths, trace export with
 * balanced spans and distinct per-component/per-tenant tracks, and
 * the tenant rollup section.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::pcie;
namespace mm = ccai::pcie::memmap;

namespace
{

constexpr Bdf kTenantB{0x00, 0x04, 0x0};

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/** Seal/open a round trip through the secure path. */
void
runWorkload(Platform &p, std::uint64_t seed = 0x0B5)
{
    sim::Rng rng(seed);
    Bytes up = rng.bytes(256 * kKiB);
    p.runtime().memcpyH2D(mm::kXpuVram.base, up, up.size(), [] {});
    p.run();
    Bytes down;
    p.runtime().memcpyD2H(mm::kXpuVram.base, 64 * kKiB, false,
                          [&](Bytes d) { down = std::move(d); });
    p.run();
    ASSERT_EQ(down, Bytes(up.begin(), up.begin() + 64 * kKiB));
}

std::string
metricsAfterRun(int threads, bool trace = false)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.adaptorConfig.cryptoThreads = threads;
    cfg.scConfig.dataEngineThreads = threads;
    Platform p(cfg);
    if (trace)
        p.setTracingEnabled(true);
    EXPECT_TRUE(p.establishTrust().ok());
    runWorkload(p);
    // Wall-clock section excluded: only the sim-time sections are
    // deterministic.
    return p.exportMetricsJson(/*includeWall=*/false);
}

} // namespace

TEST(PlatformObservability, MetricsJsonByteIdenticalOnRerun)
{
    std::string one = metricsAfterRun(2);
    std::string two = metricsAfterRun(2);
    EXPECT_EQ(one, two);

    EXPECT_NE(one.find("\"schema_version\": 5"), std::string::npos);
    EXPECT_NE(one.find("\"source\": \"platform\""),
              std::string::npos);
    EXPECT_NE(one.find("\"sim_now_ticks\""), std::string::npos);
    EXPECT_NE(one.find("\"seed\""), std::string::npos);
    // Event-core rollup from the timer-wheel kernel.
    EXPECT_NE(one.find("\"event_core\""), std::string::npos);
    EXPECT_NE(one.find("\"dispatched\""), std::string::npos);
    EXPECT_NE(one.find("\"level_high_watermarks\""), std::string::npos);
    // Every secure-path component registered a metric group.
    for (const char *prefix :
         {"\"adaptor\"", "\"pcie_sc\"", "\"rc\"", "\"xpu\"",
          "\"root_switch\""})
        EXPECT_NE(one.find(prefix), std::string::npos) << prefix;
    // Stage histograms carry percentile fields.
    EXPECT_NE(one.find("\"h2d_prepare_ticks\""), std::string::npos);
    EXPECT_NE(one.find("\"p99\""), std::string::npos);
    // Owner rollup present.
    EXPECT_NE(one.find("\"owner\""), std::string::npos);
    EXPECT_NE(one.find("\"h2d_bytes\""), std::string::npos);
}

TEST(PlatformObservability, DataCountersInvariantAcrossWidths)
{
    // Timing histograms legitimately change with the thread width —
    // what moved and whether it verified must not. Compare the
    // counters sections only.
    auto countersOf = [](int threads) {
        PlatformConfig cfg;
        cfg.secure = true;
        cfg.adaptorConfig.cryptoThreads = threads;
        cfg.scConfig.dataEngineThreads = threads;
        Platform p(cfg);
        EXPECT_TRUE(p.establishTrust().ok());
        runWorkload(p);
        std::ostringstream os;
        for (const char *name :
             {"h2d_bytes", "d2h_bytes", "h2d_chunks", "signed_writes",
              "a1_blocked", "a2_integrity_failures", "tasks_ended",
              "d2h_records"})
            os << name << '=' << p.metrics().sumCounter(name) << '\n';
        return os.str();
    };
    std::string narrow = countersOf(1);
    std::string wide = countersOf(4);
    EXPECT_EQ(narrow, wide);
    EXPECT_NE(narrow.find("h2d_bytes=262144"), std::string::npos)
        << narrow;
}

TEST(PlatformObservability, TracingOffByDefaultAndNoEvents)
{
    PlatformConfig cfg;
    cfg.secure = true;
    Platform p(cfg);
    EXPECT_FALSE(p.tracer().enabled());
    ASSERT_TRUE(p.establishTrust().ok());
    runWorkload(p);
    EXPECT_EQ(p.tracer().eventCount(), 0u);
}

TEST(PlatformObservability, TraceExportBalancedWithDistinctTracks)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.maxTenants = 2;
    Platform p(cfg);
    p.setTracingEnabled(true);
    ASSERT_TRUE(p.establishTrust().ok());
    p.addTenant(kTenantB);
    runWorkload(p);

    // Tenant B moves data too, so its adaptor track gets events.
    sim::Rng rng(0xB0B);
    Bytes data = rng.bytes(64 * kKiB);
    p.tenants()[0]->runtime->memcpyH2D(mm::kXpuVram.base + 8 * kMiB,
                                       data, data.size(), [] {});
    p.run();

    std::string path = ::testing::TempDir() + "obs_trace_test.json";
    ASSERT_TRUE(p.exportTrace(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    std::remove(path.c_str());

    ASSERT_FALSE(text.empty());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    // Balanced begin/end spans (trust establishment runs B/E).
    EXPECT_EQ(countOccurrences(text, "\"ph\": \"B\""),
              countOccurrences(text, "\"ph\": \"E\""));
    EXPECT_GT(countOccurrences(text, "\"ph\": \"B\""), 0u);
    // Per-transfer stages export as complete spans.
    EXPECT_GT(countOccurrences(text, "\"ph\": \"X\""), 0u);
    // Distinct tracks: trust, Adaptor, PCIe-SC, a link, the tenant.
    for (const char *track :
         {"\"trust\"", "\"adaptor\"", "\"pcie_sc\"",
          "\"tenant1.adaptor\"", "\"secure_boot\"", "\"a2.down\"",
          "\"h2d.seal\""})
        EXPECT_NE(text.find(track), std::string::npos) << track;
    // Well-formedness proxy: braces/brackets balance.
    EXPECT_EQ(countOccurrences(text, "{"), countOccurrences(text, "}"));
    EXPECT_EQ(countOccurrences(text, "["), countOccurrences(text, "]"));
}

TEST(PlatformObservability, TenantRollupSection)
{
    PlatformConfig cfg;
    cfg.secure = true;
    cfg.maxTenants = 2;
    Platform p(cfg);
    ASSERT_TRUE(p.establishTrust().ok());
    p.addTenant(kTenantB);
    runWorkload(p);

    std::string json = p.exportMetricsJson();
    EXPECT_NE(json.find("\"owner\""), std::string::npos);
    EXPECT_NE(json.find("\"tenant1\""), std::string::npos);
    EXPECT_NE(json.find("\"tenant1.adaptor\""), std::string::npos);
    // Wall section present in the default export.
    EXPECT_NE(json.find("\"wall\""), std::string::npos);
    EXPECT_NE(json.find("\"worker_pool\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait_ns\""), std::string::npos);
}

TEST(PlatformObservability, VanillaPlatformExports)
{
    PlatformConfig cfg;
    cfg.secure = false;
    Platform p(cfg);
    ASSERT_TRUE(p.establishTrust().ok());
    std::string json = p.exportMetricsJson(/*includeWall=*/false);
    EXPECT_NE(json.find("\"schema_version\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"secure\": false"), std::string::npos);
    // No adaptor: the tenants section is empty but present.
    EXPECT_NE(json.find("\"tenants\""), std::string::npos);
    EXPECT_EQ(json.find("\"owner\""), std::string::npos);
}
