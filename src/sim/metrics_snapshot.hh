/**
 * @file
 * System-generic metrics snapshot writer (metrics schema_version 5).
 *
 * Historically Platform::exportMetricsJson() was the only producer of
 * the machine-readable metrics snapshot; the serving control plane
 * (serve::LoadGenerator fleets) needs the identical format for its
 * replay-determinism gates, so the generic parts — the header, the
 * event-core rollup and the per-group metric dump — live here,
 * keyed off any sim::System. Schema v4 adds the required "source"
 * field identifying the exporter ("platform", "serve_fleet", ...)
 * so consumers can tell the snapshots apart.
 *
 * Producer-specific sections plug in through writer callbacks: the
 * Platform contributes its per-tenant traffic rollups and the
 * wall-clock worker-pool/buffer-pool section, a serve fleet
 * contributes nothing extra. Same sim state in, byte-identical JSON
 * out — the property the serve chaos determinism suite pins.
 */

#ifndef CCAI_SIM_METRICS_SNAPSHOT_HH
#define CCAI_SIM_METRICS_SNAPSHOT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "obs/json.hh"
#include "sim/sim_object.hh"

namespace ccai::sim
{

/** Header fields of one metrics snapshot. */
struct MetricsSnapshotInfo
{
    /** Exporter identity ("platform", "serve_fleet", ...). */
    const char *source = "platform";
    std::uint64_t seed = 0;
    bool secure = false;
};

/**
 * Section plug-in. The tenants writer emits the key/value pairs
 * INSIDE the "tenants" object (an empty object is emitted when the
 * writer is null); the extra writer emits whole keyed sections after
 * it (e.g. Platform's "wall" section) and may be null.
 */
using SnapshotSectionWriter = std::function<void(obs::JsonEmitter &)>;

/**
 * Write one schema-v4 snapshot of @p sys to @p json: header fields
 * from @p info, the deterministic event-core rollup, every
 * registered metric group, the "tenants" section and any extra
 * producer sections.
 */
void writeMetricsSnapshot(
    obs::JsonEmitter &json, System &sys,
    const MetricsSnapshotInfo &info,
    const SnapshotSectionWriter &tenantsWriter = {},
    const SnapshotSectionWriter &extraSections = {});

/** Convenience: snapshot as a newline-terminated string. */
std::string exportMetricsSnapshot(
    System &sys, const MetricsSnapshotInfo &info,
    const SnapshotSectionWriter &tenantsWriter = {},
    const SnapshotSectionWriter &extraSections = {});

} // namespace ccai::sim

#endif // CCAI_SIM_METRICS_SNAPSHOT_HH
