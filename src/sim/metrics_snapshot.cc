/**
 * @file
 * Generic schema-v5 metrics snapshot: header, event-core rollup,
 * metric groups, pluggable tenants/extra sections.
 */

#include "sim/metrics_snapshot.hh"

#include <sstream>

namespace ccai::sim
{

void
writeMetricsSnapshot(obs::JsonEmitter &json, System &sys,
                     const MetricsSnapshotInfo &info,
                     const SnapshotSectionWriter &tenantsWriter,
                     const SnapshotSectionWriter &extraSections)
{
    json.beginObject();
    json.field("schema_version", 5);
    json.field("source", info.source);
    json.field("seed", info.seed);
    json.field("sim_now_ticks", sys.now());
    json.field("secure", info.secure);

    // Event-core rollup from the timer-wheel kernel. Deterministic:
    // schedule/dispatch/cancel counts depend only on the seeded sim,
    // never on wall clock, so the section lives outside "wall".
    {
        const EventQueue::Stats eq = sys.eventq().snapshotStats();
        json.key("event_core");
        json.beginObject();
        json.field("scheduled", eq.scheduled);
        json.field("dispatched", eq.dispatched);
        json.field("cancelled", eq.cancelled);
        json.field("cascades", eq.cascades);
        json.field("pending", eq.pending);
        json.field("max_pending", eq.maxPending);
        json.field("overflow_high_watermark", eq.overflowHwm);
        json.field("one_shot_capacity", eq.oneShotCapacity);
        json.field("one_shot_live", eq.oneShotLive);
        json.key("level_high_watermarks");
        json.beginArray();
        for (std::uint64_t hwm : eq.levelHwm)
            json.value(hwm);
        json.endArray();
        json.endObject();
    }

    json.key("groups");
    sys.metrics().writeJson(json, /*withBuckets=*/false);

    json.key("tenants");
    json.beginObject();
    if (tenantsWriter)
        tenantsWriter(json);
    json.endObject();

    if (extraSections)
        extraSections(json);

    json.endObject();
}

std::string
exportMetricsSnapshot(System &sys, const MetricsSnapshotInfo &info,
                      const SnapshotSectionWriter &tenantsWriter,
                      const SnapshotSectionWriter &extraSections)
{
    std::ostringstream os;
    obs::JsonEmitter json(os);
    writeMetricsSnapshot(json, sys, info, tenantsWriter,
                         extraSections);
    os << "\n";
    return os.str();
}

} // namespace ccai::sim
