#include "serve/router.hh"

#include <algorithm>

namespace ccai::serve
{

FleetRouter::FleetRouter(std::vector<Tick> serviceEstimates)
    : devices_(serviceEstimates.size()),
      estimates_(std::move(serviceEstimates))
{
    while (leaves_ < devices_.size())
        leaves_ *= 2;
    tree_.resize(2 * leaves_);
    reset();
}

std::uint32_t
FleetRouter::healthyCount() const
{
    std::uint32_t n = 0;
    for (const DeviceStatus &dev : devices_)
        if (dev.state == RecoveryState::Healthy)
            ++n;
    return n;
}

void
FleetRouter::addBacklog(std::uint32_t d, Tick ticks)
{
    devices_[d].backlogTicks += ticks;
    update(d);
}

void
FleetRouter::releaseBacklog(std::uint32_t d, Tick ticks)
{
    Tick &backlog = devices_[d].backlogTicks;
    backlog -= std::min(backlog, ticks);
    update(d);
}

void
FleetRouter::setState(std::uint32_t d, RecoveryState state)
{
    devices_[d].state = state;
    update(d);
}

void
FleetRouter::update(std::uint32_t d)
{
    std::uint32_t i = leaves_ + d;
    tree_[i] = {healthy(d) ? devices_[d].backlogTicks + estimates_[d]
                           : kUnplaceable,
                d};
    for (i /= 2; i >= 1; i /= 2)
        pull(i);
}

void
FleetRouter::pull(std::uint32_t i)
{
    // The left child holds the lower indices, so a tie keeps it.
    const Node &left = tree_[2 * i];
    const Node &right = tree_[2 * i + 1];
    tree_[i] = right.key < left.key ? right : left;
}

void
FleetRouter::reset()
{
    for (DeviceStatus &dev : devices_)
        dev = DeviceStatus{};
    for (std::uint32_t i = 0; i < leaves_; ++i)
        tree_[leaves_ + i] = {i < devices_.size() ? estimates_[i]
                                                  : kUnplaceable,
                              i};
    for (std::uint32_t i = leaves_ - 1; i >= 1; --i)
        pull(i);
}

} // namespace ccai::serve
