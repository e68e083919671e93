/**
 * @file
 * Unit tests for the deterministic link fault injector: each fault
 * kind behaves as specified, and the schedule is a pure function of
 * (seed, link name, TLP sequence) — two same-seed runs inject the
 * exact same faults and produce identical stats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "pcie/fault_injector.hh"
#include "pcie/link.hh"

using namespace ccai;
using namespace ccai::pcie;

namespace
{

/** One observed delivery: (tag, arrival tick, payload). */
using Delivery = std::tuple<std::uint8_t, Tick, Bytes>;

class Recorder : public PcieNode
{
  public:
    explicit Recorder(sim::System &sys) : sys_(sys) {}

    void
    receiveTlp(const TlpPtr &tlp, PcieNode *) override
    {
        log.push_back({tlp->tag, sys_.now(), tlp->data});
    }
    const std::string &nodeName() const override { return name_; }

    std::vector<Delivery> log;

  private:
    sim::System &sys_;
    std::string name_ = "rec";
};

/** The counters a fault schedule can touch. */
const char *const kFaultCounters[] = {
    "faults_injected",   "fault_drops",    "crc_discards",
    "fault_corrupt_silent", "fault_duplicates", "fault_delays",
    "fault_reorders",    "fault_flap_episodes", "fault_flap_drops",
};

struct RunResult
{
    std::vector<Delivery> deliveries;
    std::map<std::string, std::uint64_t> counters;
};

/**
 * Push @p count payload-bearing MemWrites through a faulted link and
 * collect what arrives. The TLP stream is identical across calls, so
 * any difference between runs comes from the fault schedule alone.
 */
RunResult
runStream(const FaultConfig &faults, int count, bool encrypted = false)
{
    sim::System sys;
    Link link(sys, "test_link", LinkConfig{});
    Recorder sink(sys);
    link.connect(nullptr, &sink);
    link.setFaultConfig(faults);

    for (int i = 0; i < count; ++i) {
        Bytes payload(64);
        for (size_t j = 0; j < payload.size(); ++j)
            payload[j] = std::uint8_t(i + j);
        auto tlp = std::make_shared<Tlp>(Tlp::makeMemWrite(
            wellknown::kTvm, 0x1000 + 64 * i, std::move(payload)));
        tlp->tag = std::uint8_t(i);
        tlp->encrypted = encrypted;
        link.send(tlp);
    }
    sys.run();

    RunResult result;
    result.deliveries = sink.log;
    for (const char *name : kFaultCounters)
        result.counters[name] = link.stats().counterHandle(name).value();
    return result;
}

} // namespace

TEST(FaultKinds, DropRateOneDeliversNothing)
{
    FaultConfig cfg;
    cfg.seed = 1;
    cfg.dropRate = 1.0;
    RunResult r = runStream(cfg, 50);
    EXPECT_TRUE(r.deliveries.empty());
    EXPECT_EQ(r.counters["fault_drops"], 50u);
    EXPECT_EQ(r.counters["faults_injected"], 50u);
}

TEST(FaultKinds, CorruptionOfControlTrafficIsCrcDiscarded)
{
    // Unencrypted small writes are control-path: a corruption is
    // caught by the LCRC and modelled as a discard, never delivered
    // mangled (the silent fraction only applies to ciphertext).
    FaultConfig cfg;
    cfg.seed = 2;
    cfg.corruptRate = 1.0;
    cfg.corruptSilentFraction = 1.0;
    RunResult r = runStream(cfg, 50, /*encrypted=*/false);
    EXPECT_TRUE(r.deliveries.empty());
    EXPECT_EQ(r.counters["crc_discards"], 50u);
    EXPECT_EQ(r.counters["fault_corrupt_silent"], 0u);
}

TEST(FaultKinds, SilentCorruptionManglesCiphertextPayloads)
{
    FaultConfig cfg;
    cfg.seed = 3;
    cfg.corruptRate = 1.0;
    cfg.corruptSilentFraction = 1.0;
    RunResult faulted = runStream(cfg, 20, /*encrypted=*/true);
    RunResult clean = runStream(FaultConfig{}, 20, /*encrypted=*/true);

    ASSERT_EQ(faulted.deliveries.size(), 20u);
    EXPECT_EQ(faulted.counters["fault_corrupt_silent"], 20u);
    for (size_t i = 0; i < faulted.deliveries.size(); ++i) {
        // Same TLP, different bytes: delivered but mangled.
        EXPECT_EQ(std::get<0>(faulted.deliveries[i]),
                  std::get<0>(clean.deliveries[i]));
        EXPECT_NE(std::get<2>(faulted.deliveries[i]),
                  std::get<2>(clean.deliveries[i]));
    }
}

TEST(FaultKinds, DuplicateRateOneDeliversEveryTlpTwice)
{
    FaultConfig cfg;
    cfg.seed = 4;
    cfg.duplicateRate = 1.0;
    RunResult r = runStream(cfg, 25);
    EXPECT_EQ(r.deliveries.size(), 50u);
    EXPECT_EQ(r.counters["fault_duplicates"], 25u);
    // Copies are byte-identical to the original.
    std::map<std::uint8_t, int> seen;
    for (const Delivery &d : r.deliveries)
        ++seen[std::get<0>(d)];
    for (const auto &[tag, n] : seen)
        EXPECT_EQ(n, 2) << "tag " << int(tag);
}

TEST(FaultKinds, DelayPostponesDeliveryWithoutLoss)
{
    FaultConfig cfg;
    cfg.seed = 5;
    cfg.delayRate = 1.0;
    RunResult delayed = runStream(cfg, 20);
    RunResult clean = runStream(FaultConfig{}, 20);

    ASSERT_EQ(delayed.deliveries.size(), 20u);
    EXPECT_EQ(delayed.counters["fault_delays"], 20u);
    // Every TLP arrives, each no earlier than its unfaulted arrival
    // (delays can reorder, so match per tag, not per position).
    std::map<std::uint8_t, Tick> cleanAt;
    for (const Delivery &d : clean.deliveries)
        cleanAt[std::get<0>(d)] = std::get<1>(d);
    for (const Delivery &d : delayed.deliveries)
        EXPECT_GT(std::get<1>(d), cleanAt[std::get<0>(d)]);
}

TEST(FaultKinds, ReorderLetsLaterTlpsOvertake)
{
    FaultConfig cfg;
    cfg.seed = 6;
    cfg.reorderRate = 0.5;
    RunResult r = runStream(cfg, 40);

    ASSERT_EQ(r.deliveries.size(), 40u) << "reorder must not lose";
    EXPECT_GT(r.counters["fault_reorders"], 0u);
    // Same multiset of tags, but not the FIFO order.
    std::vector<std::uint8_t> order;
    for (const Delivery &d : r.deliveries)
        order.push_back(std::get<0>(d));
    std::vector<std::uint8_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(sorted[i], i);
    EXPECT_NE(order, sorted) << "no overtaking observed";
}

TEST(FaultKinds, LinkFlapDropsABurst)
{
    FaultConfig cfg;
    cfg.seed = 7;
    cfg.flapRate = 1.0;
    cfg.flapMin = cfg.flapMax = 1 * kTicksPerMs; // outlast the stream
    RunResult r = runStream(cfg, 30);
    EXPECT_EQ(r.counters["fault_flap_episodes"], 1u);
    // The first TLP opens the episode and everything behind it dies.
    EXPECT_GE(r.counters["fault_flap_drops"], 29u);
    EXPECT_TRUE(r.deliveries.empty());
}

TEST(Determinism, SameSeedSameScheduleSameStats)
{
    FaultConfig cfg = FaultConfig::uniform(0xD15EA5E, 0.2);
    RunResult a = runStream(cfg, 200);
    RunResult b = runStream(cfg, 200);
    EXPECT_EQ(a.deliveries, b.deliveries);
    EXPECT_EQ(a.counters, b.counters);
}

TEST(Determinism, DifferentSeedsDiverge)
{
    RunResult a = runStream(FaultConfig::uniform(1, 0.3), 200);
    RunResult b = runStream(FaultConfig::uniform(2, 0.3), 200);
    EXPECT_NE(a.deliveries, b.deliveries);
}

TEST(Determinism, LinkNameSaltsTheStream)
{
    // Two links sharing one FaultConfig draw from independent
    // streams, so faults on one segment are not mirrored on another.
    FaultConfig cfg = FaultConfig::uniform(42, 0.3);
    FaultInjector a(cfg, "link_a");
    FaultInjector b(cfg, "link_b");
    Tlp probe = Tlp::makeMemWriteSynthetic(wellknown::kTvm, 0, 64);

    int differing = 0;
    for (int i = 0; i < 100; ++i) {
        FaultDecision da = a.decide(probe, i * kTicksPerUs);
        FaultDecision db = b.decide(probe, i * kTicksPerUs);
        if (da.drop != db.drop || da.duplicate != db.duplicate ||
            da.extraDelay != db.extraDelay ||
            da.reorderHold != db.reorderHold)
            ++differing;
    }
    EXPECT_GT(differing, 0);
}
