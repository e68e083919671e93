#include "metric_group.hh"

#include <algorithm>
#include <sstream>

#include "obs/json.hh"

namespace ccai::obs
{

MetricGroup::MetricGroup(MetricsRegistry &registry, std::string prefix)
    : registry_(&registry), prefix_(std::move(prefix))
{
    registry_->add(this);
}

MetricGroup::~MetricGroup()
{
    if (registry_)
        registry_->remove(this);
}

std::string
MetricGroup::dump() const
{
    std::ostringstream os;
    for (const auto &kv : counters_)
        os << prefix_ << '.' << kv.first << ' ' << kv.second.value()
           << '\n';
    for (const auto &kv : gauges_)
        os << prefix_ << '.' << kv.first << ' ' << kv.second.value()
           << '\n';
    for (const auto &kv : hists_) {
        const Histogram &h = kv.second;
        os << prefix_ << '.' << kv.first << ".count " << h.count() << '\n';
        os << prefix_ << '.' << kv.first << ".mean " << h.mean() << '\n';
        os << prefix_ << '.' << kv.first << ".p50 " << h.p50() << '\n';
        os << prefix_ << '.' << kv.first << ".p99 " << h.p99() << '\n';
        os << prefix_ << '.' << kv.first << ".max " << h.max() << '\n';
    }
    return os.str();
}

void
MetricGroup::writeJson(JsonEmitter &json, bool withBuckets) const
{
    json.beginObject();
    if (!counters_.empty()) {
        json.key("counters");
        json.beginObject();
        for (const auto &kv : counters_)
            json.field(kv.first, kv.second.value());
        json.endObject();
    }
    if (!gauges_.empty()) {
        json.key("gauges");
        json.beginObject();
        for (const auto &kv : gauges_)
            json.field(kv.first, kv.second.value());
        json.endObject();
    }
    if (!hists_.empty()) {
        json.key("histograms");
        json.beginObject();
        for (const auto &kv : hists_) {
            json.key(kv.first);
            kv.second.writeJson(json, withBuckets);
        }
        json.endObject();
    }
    json.endObject();
}

void
MetricsRegistry::add(MetricGroup *group)
{
    if (std::find(groups_.begin(), groups_.end(), group) ==
        groups_.end())
        groups_.push_back(group);
}

void
MetricsRegistry::remove(MetricGroup *group)
{
    groups_.erase(std::remove(groups_.begin(), groups_.end(), group),
                  groups_.end());
}

MetricGroup *
MetricsRegistry::find(std::string_view prefix) const
{
    for (MetricGroup *g : groups_)
        if (g->prefix() == prefix)
            return g;
    return nullptr;
}

std::uint64_t
MetricsRegistry::sumCounter(const std::string &name) const
{
    std::uint64_t total = 0;
    for (MetricGroup *g : groups_) {
        auto it = g->counters().find(name);
        if (it != g->counters().end())
            total += it->second.value();
    }
    return total;
}

std::string
MetricsRegistry::dump() const
{
    std::string out;
    for (const MetricGroup *g : groups_)
        out += g->dump();
    return out;
}

void
MetricsRegistry::writeJson(JsonEmitter &json, bool withBuckets) const
{
    std::vector<MetricGroup *> sorted(groups_);
    std::sort(sorted.begin(), sorted.end(),
              [](const MetricGroup *a, const MetricGroup *b) {
                  return a->prefix() < b->prefix();
              });
    json.beginObject();
    for (const MetricGroup *g : sorted) {
        json.key(g->prefix());
        g->writeJson(json, withBuckets);
    }
    json.endObject();
}

} // namespace ccai::obs
