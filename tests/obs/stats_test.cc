/**
 * @file
 * Unit tests of the observability value types and group/registry
 * plumbing: histogram bucket geometry and percentile accuracy versus
 * a sorted-sample oracle, merge semantics for cross-thread
 * aggregation, typed-handle identity/aliasing, and registry
 * add/remove/re-registration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "obs/json.hh"
#include "obs/metric_group.hh"
#include "obs/stats.hh"

using namespace ccai;
using obs::Histogram;

namespace
{

/** Deterministic 64-bit LCG (no RNG dependency in unit tests). */
std::uint64_t
lcg(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 16;
}

/** Fractional-rank percentile over a sorted sample vector. */
double
oraclePercentile(std::vector<std::uint64_t> sorted, double p)
{
    std::sort(sorted.begin(), sorted.end());
    double rank = p / 100.0 * (sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - lo;
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

} // namespace

TEST(Histogram, BucketGeometry)
{
    // Unit buckets below kSubBuckets are exact.
    for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
        std::size_t idx = Histogram::bucketIndex(v);
        EXPECT_EQ(Histogram::bucketLow(idx), v);
        EXPECT_EQ(Histogram::bucketHigh(idx), v + 1);
    }

    // Every sample lands in a bucket whose [low, high) contains it,
    // including power-of-two boundaries and their neighbours.
    std::vector<std::uint64_t> probes;
    for (unsigned shift = 4; shift < 63; ++shift) {
        std::uint64_t p2 = 1ull << shift;
        probes.push_back(p2 - 1);
        probes.push_back(p2);
        probes.push_back(p2 + 1);
    }
    for (std::uint64_t v : probes) {
        std::size_t idx = Histogram::bucketIndex(v);
        ASSERT_LT(idx, Histogram::kBuckets) << v;
        EXPECT_LE(Histogram::bucketLow(idx), v) << v;
        EXPECT_GT(Histogram::bucketHigh(idx), v) << v;
    }

    // The top bucket contains UINT64_MAX; its exclusive bound (2^64)
    // is unrepresentable and saturates instead of wrapping to 0.
    std::size_t top = Histogram::bucketIndex(UINT64_MAX);
    ASSERT_LT(top, Histogram::kBuckets);
    EXPECT_LE(Histogram::bucketLow(top), UINT64_MAX);
    EXPECT_EQ(Histogram::bucketHigh(top), UINT64_MAX);

    // Buckets tile the axis: high(i) == low(i+1) (the saturated top
    // bucket has no successor to tile against).
    for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
        if (Histogram::bucketHigh(i) == UINT64_MAX)
            continue;
        EXPECT_EQ(Histogram::bucketHigh(i), Histogram::bucketLow(i + 1))
            << i;
    }
}

TEST(Histogram, PercentilesMatchSortedOracle)
{
    // Log-uniform-ish samples spanning several octaves: the regime
    // the 16-way sub-bucketing must quantize within ~6%.
    Histogram h;
    std::vector<std::uint64_t> samples;
    std::uint64_t state = 42;
    for (int i = 0; i < 20000; ++i) {
        unsigned octave = lcg(state) % 20;
        std::uint64_t v = (lcg(state) % 1000) << octave;
        samples.push_back(v);
        h.sample(v);
    }

    EXPECT_EQ(h.count(), samples.size());
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
        double oracle = oraclePercentile(samples, p);
        double got = h.percentile(p);
        // One sub-bucket of relative quantization error (1/16) plus
        // slack for interpolation at the tails.
        EXPECT_NEAR(got, oracle, oracle * 0.065 + 1.0) << "p" << p;
    }

    // Percentiles clamp to the observed range.
    EXPECT_GE(h.percentile(0.0), h.min());
    EXPECT_LE(h.percentile(100.0), h.max());
}

TEST(Histogram, EmptyAndSingleSample)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(50.0), 0.0);

    h.sample(777);
    EXPECT_EQ(h.min(), 777u);
    EXPECT_EQ(h.max(), 777u);
    // A single sample answers every percentile with itself (within
    // one bucket of quantization, clamped to [min, max]).
    EXPECT_EQ(h.percentile(50.0), 777.0);
    EXPECT_EQ(h.percentile(99.9), 777.0);
}

TEST(Histogram, MergeEqualsConcatenation)
{
    Histogram a, b, all;
    std::uint64_t state = 7;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = lcg(state) % 100000;
        (i % 2 ? a : b).sample(v);
        all.sample(v);
    }

    Histogram merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.count(), all.count());
    EXPECT_EQ(merged.sum(), all.sum());
    EXPECT_EQ(merged.min(), all.min());
    EXPECT_EQ(merged.max(), all.max());
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
        ASSERT_EQ(merged.bucketCount(i), all.bucketCount(i)) << i;
    EXPECT_EQ(merged.p99(), all.p99());

    // Merging an empty histogram is a no-op.
    Histogram empty;
    Histogram before = merged;
    merged.merge(empty);
    EXPECT_EQ(merged.count(), before.count());
    EXPECT_EQ(merged.min(), before.min());
}

TEST(MetricGroup, HandleIdentityAndAliasing)
{
    obs::MetricGroup g("dev");

    // Two handles for one name alias the same counter.
    obs::CounterHandle h1 = g.counterHandle("tlps");
    obs::CounterHandle h2 = g.counterHandle("tlps");
    h1.inc();
    h2.inc(4);
    EXPECT_EQ(h1.value(), 5u);
    EXPECT_EQ(h2.value(), 5u);

    // The map accessors observe the same storage the handles write.
    EXPECT_EQ(g.counters().at("tlps").value(), 5u);

    // Same aliasing for histograms and gauges.
    obs::HistogramHandle hh = g.histogramHandle("lat");
    hh.sample(100);
    EXPECT_EQ(g.histogramHandle("lat").get()->count(), 1u);
    obs::GaugeHandle gh = g.gaugeHandle("depth");
    gh.set(3.5);
    EXPECT_EQ(g.gaugeHandle("depth").value(), 3.5);

    // Default-constructed handles are inert no-ops.
    obs::CounterHandle unbound;
    unbound.inc();
    EXPECT_EQ(unbound.value(), 0u);
    EXPECT_FALSE(unbound);
}

TEST(MetricGroup, DumpFormatUnchanged)
{
    // The historical "prefix.name value" dump format components and
    // tests rely on.
    obs::MetricGroup g("adaptor");
    g.counterHandle("h2d_bytes").inc(1024);
    g.counterHandle("a1_blocked");
    std::string dump = g.dump();
    EXPECT_NE(dump.find("adaptor.h2d_bytes 1024\n"), std::string::npos)
        << dump;
    EXPECT_NE(dump.find("adaptor.a1_blocked 0\n"), std::string::npos)
        << dump;
}

TEST(MetricsRegistry, AddRemoveReregister)
{
    obs::MetricsRegistry reg;
    {
        obs::MetricGroup a(reg, "alpha");
        obs::MetricGroup b(reg, "beta");
        a.counterHandle("x").inc(2);
        b.counterHandle("x").inc(3);
        EXPECT_EQ(reg.groups().size(), 2u);
        EXPECT_EQ(reg.find("alpha"), &a);
        EXPECT_EQ(reg.sumCounter("x"), 5u);
    }
    // Destruction deregisters: no dangling entries.
    EXPECT_TRUE(reg.groups().empty());
    EXPECT_EQ(reg.find("alpha"), nullptr);
    EXPECT_EQ(reg.sumCounter("x"), 0u);

    // Re-registration under the same prefix works (rebuilt Platform).
    obs::MetricGroup a2(reg, "alpha");
    a2.counterHandle("x").inc(7);
    EXPECT_EQ(reg.find("alpha"), &a2);
    EXPECT_EQ(reg.sumCounter("x"), 7u);
}

TEST(MetricsRegistry, JsonSnapshotSortedAndDeterministic)
{
    obs::MetricsRegistry reg;
    obs::MetricGroup z(reg, "zeta");
    obs::MetricGroup a(reg, "alpha");
    z.counterHandle("n").inc(1);
    a.counterHandle("n").inc(2);
    a.histogramHandle("lat").sample(10);

    auto snapshot = [&] {
        std::ostringstream os;
        obs::JsonEmitter json(os);
        reg.writeJson(json, /*withBuckets=*/false);
        return os.str();
    };
    std::string one = snapshot();
    std::string two = snapshot();
    EXPECT_EQ(one, two);
    // Keys sorted by prefix regardless of registration order.
    EXPECT_LT(one.find("\"alpha\""), one.find("\"zeta\"")) << one;
}
