/**
 * @file
 * Typed statistic values of the observability plane: monotonic
 * counters, point-in-time gauges, and log-bucketed latency
 * histograms with percentile queries. All of them are plain value
 * types — cross-thread aggregation is done by keeping one instance
 * per thread and merge()-ing, never by sharing.
 *
 * The matching *Handle types are the hot-path API: a handle is a
 * cached pointer to a stat owned by a MetricGroup, resolved once at
 * component construction, so per-TLP/per-chunk code paths never pay
 * a string-keyed map lookup.
 */

#ifndef CCAI_OBS_STATS_HH
#define CCAI_OBS_STATS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace ccai::obs
{

class JsonEmitter;

/** Monotonic scalar counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Last-written scalar (queue depths, window sizes, rates). */
class Gauge
{
  public:
    Gauge() = default;

    void set(double v) { value_ = v; }
    void add(double by) { value_ += by; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Log-bucketed histogram over unsigned 64-bit samples (latencies in
 * ticks, sizes in bytes). Each power-of-two octave is split into 16
 * linear sub-buckets, bounding the relative quantization error of a
 * percentile query to about 6%; values below 16 get exact unit
 * buckets. Storage is a fixed ~8 KiB table, so sampling is two
 * shifts and an increment — cheap enough for per-TLP paths.
 */
class Histogram
{
  public:
    static constexpr unsigned kSubBucketBits = 4;
    static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;
    /** 16 exact unit buckets + 60 octaves x 16 sub-buckets. */
    static constexpr std::size_t kBuckets =
        kSubBuckets * (65 - kSubBucketBits);

    void
    sample(std::uint64_t v)
    {
        ++counts_[bucketIndex(v)];
        ++n_;
        sum_ += static_cast<double>(v);
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? sum_ / n_ : 0.0; }
    std::uint64_t min() const { return n_ ? min_ : 0; }
    std::uint64_t max() const { return n_ ? max_ : 0; }

    /**
     * Value at percentile @p p (0..100), interpolated within the
     * containing bucket and clamped to the observed [min, max].
     * Matches a sorted-sample oracle's fractional-rank lookup to
     * within one sub-bucket width.
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p90() const { return percentile(90.0); }
    double p99() const { return percentile(99.0); }
    double p999() const { return percentile(99.9); }

    /** Fold another histogram in (cross-thread aggregation). */
    void merge(const Histogram &other);

    void reset();

    /** Index of the bucket holding @p v. */
    static std::size_t bucketIndex(std::uint64_t v);
    /** Inclusive lower bound of bucket @p index. */
    static std::uint64_t bucketLow(std::size_t index);
    /** Exclusive upper bound of bucket @p index. */
    static std::uint64_t bucketHigh(std::size_t index);

    std::uint64_t bucketCount(std::size_t index) const
    {
        return counts_[index];
    }

    /** {count, mean, min, max, p50..p999, buckets: [[low, n]...]}. */
    void writeJson(JsonEmitter &json, bool withBuckets = true) const;

  private:
    std::uint64_t n_ = 0;
    double sum_ = 0.0;
    std::uint64_t min_ = UINT64_MAX;
    std::uint64_t max_ = 0;
    std::array<std::uint64_t, kBuckets> counts_{};
};

inline std::size_t
Histogram::bucketIndex(std::uint64_t v)
{
    if (v < kSubBuckets)
        return static_cast<std::size_t>(v);
    unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    unsigned octave = msb - kSubBucketBits; // 0-based, v >= 16
    std::uint64_t sub = (v >> octave) - kSubBuckets;
    return kSubBuckets + octave * kSubBuckets +
           static_cast<std::size_t>(sub);
}

inline std::uint64_t
Histogram::bucketLow(std::size_t index)
{
    if (index < kSubBuckets)
        return index;
    std::size_t octave = (index - kSubBuckets) / kSubBuckets;
    std::uint64_t sub = (index - kSubBuckets) % kSubBuckets;
    return (kSubBuckets + sub) << octave;
}

inline std::uint64_t
Histogram::bucketHigh(std::size_t index)
{
    if (index < kSubBuckets)
        return index + 1;
    std::size_t octave = (index - kSubBuckets) / kSubBuckets;
    std::uint64_t sub = (index - kSubBuckets) % kSubBuckets;
    std::uint64_t base = kSubBuckets + sub + 1;
    // The top bucket's exclusive bound (2^64) is unrepresentable;
    // saturate instead of wrapping to 0, which would invert the
    // bucket interval and break percentile interpolation there.
    if (octave >= 64 || (base << octave) >> octave != base)
        return UINT64_MAX;
    return base << octave;
}

/**
 * Cached reference to a Counter owned by a MetricGroup. Default
 * construction yields an unbound handle whose operations are no-ops,
 * so components can keep handles for stats that only exist in some
 * configurations.
 */
class CounterHandle
{
  public:
    CounterHandle() = default;
    explicit CounterHandle(Counter *c) : c_(c) {}

    void
    inc(std::uint64_t by = 1)
    {
        if (c_)
            c_->inc(by);
    }

    std::uint64_t value() const { return c_ ? c_->value() : 0; }
    explicit operator bool() const { return c_ != nullptr; }

  private:
    Counter *c_ = nullptr;
};

/** Cached reference to a Gauge owned by a MetricGroup. */
class GaugeHandle
{
  public:
    GaugeHandle() = default;
    explicit GaugeHandle(Gauge *g) : g_(g) {}

    void
    set(double v)
    {
        if (g_)
            g_->set(v);
    }

    void
    add(double by)
    {
        if (g_)
            g_->add(by);
    }

    double value() const { return g_ ? g_->value() : 0.0; }
    explicit operator bool() const { return g_ != nullptr; }

  private:
    Gauge *g_ = nullptr;
};

/** Cached reference to a Histogram owned by a MetricGroup. */
class HistogramHandle
{
  public:
    HistogramHandle() = default;
    explicit HistogramHandle(Histogram *h) : h_(h) {}

    void
    sample(std::uint64_t v)
    {
        if (h_)
            h_->sample(v);
    }

    const Histogram *get() const { return h_; }
    explicit operator bool() const { return h_ != nullptr; }

  private:
    Histogram *h_ = nullptr;
};

} // namespace ccai::obs

#endif // CCAI_OBS_STATS_HH
