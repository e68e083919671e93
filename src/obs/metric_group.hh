/**
 * @file
 * Named metric groups and the process registry that aggregates them.
 *
 * A MetricGroup owns the stats of one component under a dotted
 * prefix ("adaptor", "pcie_sc", "tenant1.adaptor"). Storage is
 * std::map so node addresses are stable: the typed handles returned
 * by counterHandle()/histogramHandle()/... stay valid for the life
 * of the group, letting components resolve every stat once at
 * construction and never touch a string key on a hot path again.
 * (Handles are the only mutable accessors; the const map views below
 * exist for whole-group enumeration — JSON export, tenant rollups.)
 *
 * A MetricsRegistry is a non-owning directory of live groups (one
 * per sim::System); it powers whole-machine JSON snapshots and
 * cross-component counter sums without enumerating components by
 * hand.
 */

#ifndef CCAI_OBS_METRIC_GROUP_HH
#define CCAI_OBS_METRIC_GROUP_HH

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stats.hh"

namespace ccai::obs
{

class MetricsRegistry;

/**
 * Named statistics group. Components own one and register their
 * counters under dotted names for uniform reporting.
 */
class MetricGroup
{
  public:
    explicit MetricGroup(std::string prefix)
        : prefix_(std::move(prefix))
    {}

    /** Construct and register with @p registry; the destructor
     * deregisters, so re-registration under the same prefix (e.g. a
     * rebuilt Platform) never leaves dangling entries. */
    MetricGroup(MetricsRegistry &registry, std::string prefix);

    ~MetricGroup();

    MetricGroup(const MetricGroup &) = delete;
    MetricGroup &operator=(const MetricGroup &) = delete;

    // Typed cached handles — resolve once, use forever. Two handles
    // for the same name alias the same underlying stat; the stat is
    // created on first lookup.
    CounterHandle
    counterHandle(const std::string &name)
    {
        return CounterHandle(&counters_[name]);
    }

    GaugeHandle
    gaugeHandle(const std::string &name)
    {
        return GaugeHandle(&gauges_[name]);
    }

    HistogramHandle
    histogramHandle(const std::string &name)
    {
        return HistogramHandle(&hists_[name]);
    }

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    const std::map<std::string, Gauge> &gauges() const
    {
        return gauges_;
    }

    const std::map<std::string, Histogram> &histograms() const
    {
        return hists_;
    }

    const std::string &prefix() const { return prefix_; }

    /** Render all stats as "prefix.name value" lines. */
    std::string dump() const;

    /** One JSON object: {counters: {...}, gauges: {...},
     * histograms: {...}} (empty sections omitted). */
    void writeJson(JsonEmitter &json, bool withBuckets = true) const;

  private:
    MetricsRegistry *registry_ = nullptr;
    std::string prefix_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> hists_;
};

/**
 * Non-owning directory of live MetricGroups. Groups add themselves
 * on construction (when built with the registry overload) and remove
 * themselves on destruction.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    void add(MetricGroup *group);
    void remove(MetricGroup *group);

    /** Registration order (deterministic: construction order). */
    const std::vector<MetricGroup *> &groups() const
    {
        return groups_;
    }

    /** First group with exactly @p prefix; nullptr when absent. */
    MetricGroup *find(std::string_view prefix) const;

    /** Sum a named counter across every registered group, e.g.
     * "faults_injected" over all links. */
    std::uint64_t sumCounter(const std::string &name) const;

    /** Every group's dump(), in registration order (gem5-style). */
    std::string dump() const;

    /**
     * Snapshot of every group keyed by prefix (sorted), suitable for
     * Platform::exportMetricsJson(). Deterministic: same sim state
     * in, byte-identical JSON out.
     */
    void writeJson(JsonEmitter &json, bool withBuckets = true) const;

  private:
    std::vector<MetricGroup *> groups_;
};

} // namespace ccai::obs

#endif // CCAI_OBS_METRIC_GROUP_HH
