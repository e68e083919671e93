#include "stats.hh"

#include "obs/json.hh"

namespace ccai::obs
{

double
Histogram::percentile(double p) const
{
    if (!n_)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Fractional rank over the sorted sample, matching the oracle
    // convention rank = p/100 * (count - 1).
    double target = p / 100.0 * static_cast<double>(n_ - 1);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        std::uint64_t cnt = counts_[i];
        if (!cnt)
            continue;
        // Bucket i holds ranks [cum, cum + cnt - 1].
        if (target <= static_cast<double>(cum + cnt - 1)) {
            double within =
                (target - static_cast<double>(cum) + 0.5) /
                static_cast<double>(cnt);
            double low = static_cast<double>(bucketLow(i));
            double high = static_cast<double>(bucketHigh(i));
            double v = low + within * (high - low);
            return std::clamp(v, static_cast<double>(min()),
                              static_cast<double>(max()));
        }
        cum += cnt;
    }
    return static_cast<double>(max());
}

void
Histogram::merge(const Histogram &other)
{
    if (!other.n_)
        return;
    n_ += other.n_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (std::size_t i = 0; i < kBuckets; ++i)
        counts_[i] += other.counts_[i];
}

void
Histogram::reset()
{
    n_ = 0;
    sum_ = 0.0;
    min_ = UINT64_MAX;
    max_ = 0;
    counts_.fill(0);
}

void
Histogram::writeJson(JsonEmitter &json, bool withBuckets) const
{
    json.beginObject();
    json.field("count", n_);
    json.field("mean", mean());
    json.field("min", min());
    json.field("max", max());
    json.field("p50", p50());
    json.field("p90", p90());
    json.field("p99", p99());
    json.field("p999", p999());
    if (withBuckets && n_) {
        json.key("buckets");
        json.beginArray();
        for (std::size_t i = 0; i < kBuckets; ++i) {
            if (!counts_[i])
                continue;
            json.beginArray();
            json.value(bucketLow(i));
            json.value(counts_[i]);
            json.endArray();
        }
        json.endArray();
    }
    json.endObject();
}

} // namespace ccai::obs
