/**
 * @file
 * Fleet-router tests: least-loaded placement with per-device service
 * estimates, deterministic tie-breaking, exclusion of crash victims
 * walking the recovery ladder, the whole-fleet-down case, resetting
 * the routing books, and the min-tree against a linear scan.
 */

#include <gtest/gtest.h>

#include "serve/router.hh"
#include "sim/rng.hh"

using namespace ccai;
using namespace ccai::serve;

TEST(FleetRouter, PicksLeastLoadedDevice)
{
    FleetRouter router({50, 50, 50});
    router.addBacklog(0, 300);
    router.addBacklog(1, 100);
    router.addBacklog(2, 200);
    const auto pick = router.pick();
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 1u);
}

TEST(FleetRouter, PerDeviceEstimateCanFlipThePick)
{
    // Device 1 has the smaller backlog, but a request runs so much
    // slower there (heterogeneous fleet) that device 0's completion
    // is still earlier.
    FleetRouter router({10, 500});
    router.addBacklog(0, 200);
    router.addBacklog(1, 100);
    const auto pick = router.pick();
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 0u);
}

TEST(FleetRouter, TiesBreakOnLowestIndex)
{
    FleetRouter router({1, 1, 1, 1});
    for (std::uint32_t d = 0; d < 4; ++d)
        router.addBacklog(d, 77);
    const auto pick = router.pick();
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 0u);
}

TEST(FleetRouter, UnhealthyDevicesAttractNoWork)
{
    FleetRouter router({1, 1, 1});
    router.setState(0, RecoveryState::Resetting);
    router.addBacklog(1, 900);
    router.setState(2, RecoveryState::ReAttesting);
    EXPECT_EQ(router.healthyCount(), 1u);
    EXPECT_FALSE(router.healthy(0));
    EXPECT_FALSE(router.healthy(2));
    const auto pick = router.pick();
    ASSERT_TRUE(pick.has_value());
    // The idle crash victims are skipped for the loaded survivor.
    EXPECT_EQ(*pick, 1u);
}

TEST(FleetRouter, WholeFleetDownPicksNothing)
{
    FleetRouter router({1, 1});
    router.setState(0, RecoveryState::Resetting);
    router.setState(1, RecoveryState::Quarantined);
    EXPECT_EQ(router.healthyCount(), 0u);
    EXPECT_FALSE(router.pick().has_value());
}

TEST(FleetRouter, ScoreIsBacklogPlusEstimate)
{
    // Device 0 scores 40 + 2 = 42, device 1 a flat 0 + 42: a tie,
    // which the lower index wins; one more tick of backlog on device
    // 0 hands the pick to device 1.
    FleetRouter router({2, 42});
    router.addBacklog(0, 40);
    EXPECT_EQ(router.serviceEstimate(0), 2u);
    EXPECT_EQ(router.pick(), std::optional<std::uint32_t>(0));
    router.addBacklog(0, 1);
    EXPECT_EQ(router.pick(), std::optional<std::uint32_t>(1));
}

TEST(FleetRouter, ResetRestoresHealthyEmptyBooks)
{
    FleetRouter router({1, 1});
    router.setState(0, RecoveryState::Resetting);
    router.setQueueDepth(0, 9);
    router.addBacklog(0, 1234);
    router.addBacklog(1, 5);
    router.reset();
    EXPECT_EQ(router.healthyCount(), 2u);
    for (std::uint32_t d = 0; d < 2; ++d) {
        EXPECT_EQ(router.device(d).queueDepth, 0u);
        EXPECT_EQ(router.device(d).backlogTicks, 0u);
        EXPECT_EQ(router.device(d).state, RecoveryState::Healthy);
    }
    EXPECT_EQ(router.pick(), std::optional<std::uint32_t>(0));
}

namespace
{

Tick
scoreOf(const FleetRouter &router, std::uint32_t d)
{
    return router.device(d).backlogTicks + router.serviceEstimate(d);
}

/** The pick as a linear lowest-index scan over the router's books. */
std::optional<std::uint32_t>
scanPick(const FleetRouter &router)
{
    std::optional<std::uint32_t> best;
    Tick bestScore = 0;
    for (std::uint32_t d = 0; d < router.deviceCount(); ++d) {
        if (!router.healthy(d))
            continue;
        const Tick score = scoreOf(router, d);
        if (!best || score < bestScore) {
            best = d;
            bestScore = score;
        }
    }
    return best;
}

} // namespace

TEST(FleetRouter, TreeMatchesLinearScan)
{
    // A fleet that is no power of two, with estimates and backlog
    // steps drawn from small ranges so scores tie often.
    constexpr std::uint32_t kDevices = 37;
    constexpr RecoveryState kStates[] = {
        RecoveryState::Healthy,     RecoveryState::Suspect,
        RecoveryState::Resetting,   RecoveryState::ReAttesting,
        RecoveryState::Resuming,    RecoveryState::Quarantined,
    };
    sim::Rng rng(0x7EE);
    std::vector<Tick> estimates;
    for (std::uint32_t d = 0; d < kDevices; ++d)
        estimates.push_back(rng.uniform(1, 4));
    FleetRouter router(estimates);

    std::uint64_t ties = 0, empty = 0;
    std::uint32_t statesSeen = 0;
    for (int op = 0; op < 20000; ++op) {
        const auto d = static_cast<std::uint32_t>(
            rng.uniform(0, kDevices - 1));
        const std::uint64_t kind = rng.uniform(0, 99);
        if (kind < 40) {
            router.addBacklog(d, rng.uniform(0, 3));
        } else if (kind < 75) {
            router.releaseBacklog(d, rng.uniform(0, 4));
        } else if (kind < 98) {
            // Healthy half the time, so the fleet keeps recovering.
            const std::size_t s =
                rng.uniform(0, 1) ? 0 : rng.uniform(1, 5);
            router.setState(d, kStates[s]);
            statesSeen |= 1u << s;
        } else if (kind < 99) {
            router.reset();
        } else {
            for (std::uint32_t k = 0; k < kDevices; ++k)
                router.setState(k, RecoveryState::Quarantined);
        }

        const auto expect = scanPick(router);
        ASSERT_EQ(router.pick(), expect) << "after op " << op;
        if (!expect) {
            ++empty;
            continue;
        }
        for (std::uint32_t k = *expect + 1; k < kDevices; ++k)
            if (router.healthy(k) &&
                scoreOf(router, k) == scoreOf(router, *expect)) {
                ++ties;
                break;
            }
    }
    // The sequence covered what the tree has to get right.
    EXPECT_GT(ties, 100u);
    EXPECT_GT(empty, 0u);
    EXPECT_EQ(statesSeen, (1u << std::size(kStates)) - 1);
}
