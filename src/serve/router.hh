/**
 * @file
 * Health-aware least-loaded fleet router. Replaces the static
 * tenant->device pinning of the original load generator: each
 * request is placed on the Healthy device with the earliest
 * estimated completion (its queued backlog plus the roofline service
 * estimate of a request there), so a slow or crashed device stops
 * attracting work instead of stalling its pinned tenants.
 *
 * The router owns the routing view of fleet state — queue depth,
 * backlog ticks, the ccai::RecoveryState each device is in (Healthy
 * serves; Resetting/ReAttesting devices are crash victims walking
 * reset -> re-attest -> rejoin) — and every change to it goes through
 * a mutator. Each mutator keeps a min-tree over
 * (backlogTicks + estimate, device index) current in O(log n), with
 * non-Healthy devices at +infinity, so pick() reads the root. Ties
 * break on the lowest device index, keeping placement deterministic
 * under replay. A per-request setup cost that is the same on every
 * device cannot change the argmin, so pick() takes no request.
 */

#ifndef CCAI_SERVE_ROUTER_HH
#define CCAI_SERVE_ROUTER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "ccai/chaos.hh"
#include "common/types.hh"

namespace ccai::serve
{

/** Routing-relevant view of one fleet device. */
struct DeviceStatus
{
    RecoveryState state = RecoveryState::Healthy;
    /** Queued requests (excluding the active one). */
    std::uint32_t queueDepth = 0;
    /** Roofline estimate of all queued + in-flight work (ticks). */
    Tick backlogTicks = 0;
};

class FleetRouter
{
  public:
    /** One device per entry: its whole-request service estimate. */
    explicit FleetRouter(std::vector<Tick> serviceEstimates);

    const DeviceStatus &device(std::uint32_t d) const
    {
        return devices_[d];
    }

    std::uint32_t deviceCount() const
    {
        return static_cast<std::uint32_t>(devices_.size());
    }

    /** Service estimate of one request on device @p d (ticks). */
    Tick serviceEstimate(std::uint32_t d) const
    {
        return estimates_[d];
    }

    bool healthy(std::uint32_t d) const
    {
        return devices_[d].state == RecoveryState::Healthy;
    }

    std::uint32_t healthyCount() const;

    /**
     * Least-loaded Healthy device: lowest backlog + estimate, ties
     * to the lowest index; nullopt when the whole fleet is down.
     */
    std::optional<std::uint32_t>
    pick() const
    {
        const Node &root = tree_[1];
        if (root.key == kUnplaceable)
            return std::nullopt;
        return root.device;
    }

    void addBacklog(std::uint32_t d, Tick ticks);
    /** Subtract @p ticks, clamped at an empty backlog. */
    void releaseBacklog(std::uint32_t d, Tick ticks);
    void setState(std::uint32_t d, RecoveryState state);
    void
    setQueueDepth(std::uint32_t d, std::uint32_t depth)
    {
        devices_[d].queueDepth = depth;
    }

    /** All devices Healthy with empty books (the constructor builds
     * the tree through this). */
    void reset();

  private:
    /** Key of a non-Healthy device and of padding leaves; a Healthy
     * device's backlog + estimate never comes near it. */
    static constexpr Tick kUnplaceable = ~Tick(0);

    struct Node
    {
        Tick key = kUnplaceable;
        std::uint32_t device = 0;
    };

    /** Recompute device @p d's leaf and the path to the root. */
    void update(std::uint32_t d);
    /** Recompute inner node @p i from its two children. */
    void pull(std::uint32_t i);

    std::vector<DeviceStatus> devices_;
    std::vector<Tick> estimates_;
    /** Leaves of the min-tree: one per device, padded to a power of
     * two; node 1 is the root, node i's children are 2i and 2i+1. */
    std::uint32_t leaves_ = 1;
    std::vector<Node> tree_;
};

} // namespace ccai::serve

#endif // CCAI_SERVE_ROUTER_HH
