/**
 * @file
 * Regression replay of the checked-in adversarial corpus
 * (tests/attack/corpus/). Every entry decodes, classifies to the
 * exact action + reason recorded in its header — through a fresh
 * PacketFilter and through a fully-booted secure Platform — and the
 * corpus keeps covering at least the minimum breadth of distinct
 * blocked classes. A verdict drift here means a policy or filter
 * change silently re-admitted (or re-categorized) a known attack.
 */

#include <gtest/gtest.h>

#include <set>

#include "attack/tlp_fuzzer.hh"
#include "backend/policy.hh"
#include "ccai/platform.hh"

using namespace ccai;
using namespace ccai::attack;
using namespace ccai::pcie;

#ifndef CCAI_CORPUS_DIR
#error "build must define CCAI_CORPUS_DIR"
#endif

namespace
{

std::vector<CorpusEntry>
corpus()
{
    static const std::vector<CorpusEntry> entries =
        loadCorpusDir(CCAI_CORPUS_DIR);
    return entries;
}

} // namespace

TEST(CorpusReplay, CorpusIsPresentAndBroad)
{
    const auto entries = corpus();
    // The acceptance floor: >= 25 distinct blocked-TLP classes.
    ASSERT_GE(entries.size(), 25u);
    std::set<std::string> names;
    std::set<backend::BlockReason> reasons;
    for (const auto &entry : entries) {
        EXPECT_TRUE(names.insert(entry.name).second)
            << "duplicate corpus name " << entry.name;
        EXPECT_EQ(entry.action, backend::SecurityAction::A1_Disallow)
            << entry.name << ": corpus entries are blocked classes";
        EXPECT_NE(entry.reason, backend::BlockReason::None) << entry.name;
        reasons.insert(entry.reason);
    }
    EXPECT_GE(reasons.size(), 6u)
        << "corpus collapsed onto too few block reasons";
}

TEST(CorpusReplay, EveryEntryDecodes)
{
    for (const auto &entry : corpus()) {
        auto tlp = decodeTlp(entry.encoded);
        ASSERT_TRUE(tlp.has_value()) << entry.name;
        EXPECT_EQ(encodeTlp(*tlp), entry.encoded) << entry.name;
    }
}

TEST(CorpusReplay, FreshFilterReproducesEveryVerdict)
{
    for (const auto &entry : corpus()) {
        // A fresh filter per entry: no TLB state, no ordering effects.
        sc::PacketFilter filter;
        filter.install(backend::defaultPolicy(
            wellknown::kTvm, wellknown::kXpu, wellknown::kPcieSc));
        auto tlp = decodeTlp(entry.encoded);
        ASSERT_TRUE(tlp.has_value()) << entry.name;
        const backend::FilterVerdict verdict = filter.classifyEx(*tlp);
        EXPECT_EQ(verdict.action, entry.action) << entry.name;
        EXPECT_EQ(verdict.reason, entry.reason) << entry.name;
        EXPECT_EQ(filter.blockedFor(entry.reason), 1u) << entry.name;
    }
}

TEST(CorpusReplay, BootedPlatformReproducesEveryVerdict)
{
    // The platform installs its policy through the real trust/config
    // path; replaying against its live filter catches drift between
    // defaultPolicy() and what actually lands in the SC.
    Platform p(PlatformConfig{.secure = true});
    ASSERT_TRUE(p.establishTrust().ok());
    auto &filter = p.pcieSc()->filter();
    for (const auto &entry : corpus()) {
        auto tlp = decodeTlp(entry.encoded);
        ASSERT_TRUE(tlp.has_value()) << entry.name;
        const std::uint64_t before = filter.blockedFor(entry.reason);
        const backend::FilterVerdict verdict = filter.classifyEx(*tlp);
        EXPECT_EQ(verdict.action, entry.action) << entry.name;
        EXPECT_EQ(verdict.reason, entry.reason) << entry.name;
        EXPECT_EQ(filter.blockedFor(entry.reason), before + 1)
            << entry.name;
    }
}

TEST(CorpusReplay, ReplayIsDeterministicUnderFixedSeed)
{
    // Corpus replay involves no randomness at all — same verdicts in
    // both passes, TLB warm or cold.
    sc::PacketFilter filter;
    filter.install(backend::defaultPolicy(wellknown::kTvm, wellknown::kXpu,
                                          wellknown::kPcieSc));
    std::vector<std::pair<backend::SecurityAction, backend::BlockReason>>
        first;
    for (const auto &entry : corpus()) {
        auto tlp = decodeTlp(entry.encoded);
        ASSERT_TRUE(tlp.has_value());
        const auto v = filter.classifyEx(*tlp);
        first.emplace_back(v.action, v.reason);
    }
    std::size_t i = 0;
    for (const auto &entry : corpus()) {
        auto tlp = decodeTlp(entry.encoded);
        ASSERT_TRUE(tlp.has_value());
        const auto v = filter.classifyEx(*tlp);
        EXPECT_EQ(std::make_pair(v.action, v.reason), first[i++])
            << entry.name;
    }
}
