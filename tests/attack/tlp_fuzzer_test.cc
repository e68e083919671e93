/**
 * @file
 * Coverage-guided fuzzer tests: determinism (same seed + budget =>
 * byte-identical corpus and identical counters, including through
 * the CCAI_SEED override, extending the tests/sim/rng_seed_test.cc
 * conventions), oracle cleanliness on a healthy policy, corpus
 * entry round-trip, and minimized entries preserving their verdict.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <filesystem>
#include <set>

#include "attack/tlp_fuzzer.hh"
#include "backend/policy.hh"
#include "sim/rng.hh"

using namespace ccai;
using namespace ccai::attack;
using namespace ccai::pcie;
namespace fs = std::filesystem;

namespace
{

constexpr std::uint64_t kIterations = 20000;

/** Restore a pristine override/env state around each test. */
class FuzzerSeedOverride : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::setSeedOverride(std::nullopt);
        unsetenv("CCAI_SEED");
    }
    void
    TearDown() override
    {
        sim::setSeedOverride(std::nullopt);
        unsetenv("CCAI_SEED");
    }
};

/** Full corpus as one string: the byte-identity comparand. */
std::string
corpusImage(const TlpFuzzer &fuzzer)
{
    std::string out;
    for (const auto &entry : fuzzer.corpus())
        out += entry.serialize();
    return out;
}

std::unique_ptr<TlpFuzzer>
runOne(std::uint64_t seed, std::uint64_t iterations = kIterations)
{
    auto fuzzer = std::make_unique<TlpFuzzer>(seed);
    fuzzer->seedCorpus();
    fuzzer->run(iterations);
    return fuzzer;
}

} // namespace

TEST(TlpFuzzer, SeedingCoversTheCatalog)
{
    TlpFuzzer fuzzer(1);
    fuzzer.seedCorpus();
    EXPECT_GE(fuzzer.corpus().size(), 25u);
    EXPECT_EQ(fuzzer.stats().oracleViolations, 0u);
    // Benign seeds classified too: both sides of the boundary seen.
    EXPECT_GT(fuzzer.stats().allowed, 0u);
    EXPECT_GT(fuzzer.stats().blocked, 0u);
}

TEST(TlpFuzzer, SameSeedSameBudgetIsByteIdentical)
{
    const auto a = runOne(0xF00D);
    const auto b = runOne(0xF00D);
    EXPECT_EQ(a->stats(), b->stats());
    EXPECT_EQ(a->coverageCount(), b->coverageCount());
    ASSERT_EQ(a->corpus().size(), b->corpus().size());
    EXPECT_EQ(corpusImage(*a), corpusImage(*b));
}

TEST(TlpFuzzer, DifferentSeedsDiverge)
{
    const auto a = runOne(1, 5000);
    const auto b = runOne(2, 5000);
    // Identical mutation streams from different seeds would mean the
    // seed is not actually feeding the engine.
    EXPECT_NE(a->stats().blocked, b->stats().blocked);
}

TEST_F(FuzzerSeedOverride, CcaiSeedDrivesTheRun)
{
    setenv("CCAI_SEED", "4242", 1);
    const auto viaEnv = runOne(sim::resolveSeed(7), 5000);
    unsetenv("CCAI_SEED");
    const auto direct = runOne(4242, 5000);
    EXPECT_EQ(viaEnv->stats(), direct->stats());
    EXPECT_EQ(corpusImage(*viaEnv), corpusImage(*direct));
}

TEST(TlpFuzzer, HealthyPolicyYieldsNoOracleViolations)
{
    const auto fuzzer = runOne(0xCAFE);
    EXPECT_EQ(fuzzer->stats().oracleViolations, 0u)
        << (fuzzer->violations().empty()
                ? std::string()
                : fuzzer->violations().front());
    EXPECT_EQ(fuzzer->stats().iterations, kIterations);
    // The byte-level mutators must be hitting the strict codec.
    EXPECT_GT(fuzzer->stats().decodeRejects, 0u);
    // Mutation must find buckets the seeds alone do not reach.
    EXPECT_GT(fuzzer->coverageCount(), fuzzer->corpus().size());
    // Several malformed + rule-level reasons observed.
    const auto &byReason = fuzzer->stats().blockedByReason;
    EXPECT_GT(byReason[static_cast<std::size_t>(
                  backend::BlockReason::MalformedLength)],
              0u);
    EXPECT_GT(byReason[static_cast<std::size_t>(
                  backend::BlockReason::L1DenyDefault)],
              0u);
    EXPECT_GT(byReason[static_cast<std::size_t>(
                  backend::BlockReason::L2DenyRule)],
              0u);
}

TEST(TlpFuzzer, CorpusEntriesReplayToTheirRecordedVerdict)
{
    const auto fuzzer = runOne(0xBEEF, 10000);
    sc::PacketFilter replay;
    replay.install(backend::defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                          wellknown::kPcieSc));
    std::set<std::string> names;
    for (const auto &entry : fuzzer->corpus()) {
        EXPECT_TRUE(names.insert(entry.name).second)
            << "duplicate corpus name " << entry.name;
        auto tlp = decodeTlp(entry.encoded);
        ASSERT_TRUE(tlp.has_value()) << entry.name;
        const backend::FilterVerdict verdict = replay.classifyEx(*tlp);
        EXPECT_EQ(verdict.action, entry.action) << entry.name;
        EXPECT_EQ(verdict.reason, entry.reason) << entry.name;
    }
}

TEST(TlpFuzzer, CorpusEntrySerializationRoundTrips)
{
    const auto fuzzer = runOne(0xD15C, 5000);
    ASSERT_FALSE(fuzzer->corpus().empty());
    for (const auto &entry : fuzzer->corpus()) {
        auto parsed = CorpusEntry::parse(entry.serialize());
        ASSERT_TRUE(parsed.has_value()) << entry.name;
        EXPECT_EQ(parsed->name, entry.name);
        EXPECT_EQ(parsed->action, entry.action);
        EXPECT_EQ(parsed->reason, entry.reason);
        EXPECT_EQ(parsed->encoded, entry.encoded);
    }
}

TEST(CorpusEntryParse, RejectsMalformedHeaders)
{
    EXPECT_FALSE(CorpusEntry::parse("").has_value());
    EXPECT_FALSE(CorpusEntry::parse("not-a-corpus\n").has_value());
    EXPECT_FALSE(CorpusEntry::parse("ccai-tlp-corpus v1\n"
                                    "name: x\n")
                     .has_value());
    EXPECT_FALSE(CorpusEntry::parse("ccai-tlp-corpus v1\n"
                                    "name: x\n"
                                    "action: 9\n"
                                    "reason: l1_deny_rule\n"
                                    "tlp: 00\n")
                     .has_value());
    EXPECT_FALSE(CorpusEntry::parse("ccai-tlp-corpus v1\n"
                                    "name: x\n"
                                    "action: 1\n"
                                    "reason: bogus_reason\n"
                                    "tlp: 00\n")
                     .has_value());
    EXPECT_FALSE(CorpusEntry::parse("ccai-tlp-corpus v1\n"
                                    "name: x\n"
                                    "action: 1\n"
                                    "reason: l1_deny_rule\n"
                                    "tlp: zz\n")
                     .has_value());
}

TEST(TlpFuzzer, WriteCorpusIsDeterministicOnDisk)
{
    const fs::path dirA =
        fs::path(::testing::TempDir()) / "ccai_corpus_a";
    const fs::path dirB =
        fs::path(::testing::TempDir()) / "ccai_corpus_b";
    fs::remove_all(dirA);
    fs::remove_all(dirB);

    const auto a = runOne(0xAB5EED, 5000);
    const auto b = runOne(0xAB5EED, 5000);
    EXPECT_EQ(a->writeCorpus(dirA.string()), a->corpus().size());
    EXPECT_EQ(b->writeCorpus(dirB.string()), b->corpus().size());

    const auto loadedA = loadCorpusDir(dirA.string());
    const auto loadedB = loadCorpusDir(dirB.string());
    ASSERT_EQ(loadedA.size(), a->corpus().size());
    ASSERT_EQ(loadedA.size(), loadedB.size());
    for (std::size_t i = 0; i < loadedA.size(); ++i) {
        EXPECT_EQ(loadedA[i].name, loadedB[i].name);
        EXPECT_EQ(loadedA[i].encoded, loadedB[i].encoded);
    }
    // Re-writing over an existing corpus finds nothing new.
    EXPECT_EQ(a->writeCorpus(dirA.string()), 0u);
    fs::remove_all(dirA);
    fs::remove_all(dirB);
}
