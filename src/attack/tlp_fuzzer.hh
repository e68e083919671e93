/**
 * @file
 * Coverage-guided TLP fuzzer for the Packet Filter.
 *
 * The fuzzer mutates encoded TLPs (pcie/tlp_codec.hh) with both
 * dumb byte-level operators (bit flips, byte sets, splices,
 * truncations) and structure-aware operators (decode, nudge one
 * header field, re-encode), classifies every decodable mutant
 * through a PacketFilter running the platform's default policy, and
 * keeps any input that lights up a new coverage bucket. Coverage is
 * a hash over the classification outcome — (action, reason, L1/L2
 * rule index, TLP type/fmt, anomaly kind, length bucket, memory-map
 * window) — so "new coverage" means "the filter took a decision path
 * no earlier input took".
 *
 * Interesting inputs are greedily minimized (payload stripped,
 * metadata zeroed, fields canonicalized — every step must preserve
 * the coverage key) and serialized into a text corpus under
 * tests/attack/corpus/, which the corpus-replay regression test
 * re-classifies on every CI run.
 *
 * Everything is driven by one sim::Rng: the same seed and iteration
 * budget reproduce byte-identical corpora and identical counters.
 */

#ifndef CCAI_ATTACK_TLP_FUZZER_HH
#define CCAI_ATTACK_TLP_FUZZER_HH

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pcie/tlp_codec.hh"
#include "sc/packet_filter.hh"
#include "sim/rng.hh"

namespace ccai::attack
{

/**
 * One corpus entry: a named encoded TLP plus the verdict the Packet
 * Filter must reproduce on replay. The verdict fields are the
 * regression assertion — replay fails if either drifts.
 */
struct CorpusEntry
{
    std::string name;
    backend::SecurityAction action = backend::SecurityAction::A1_Disallow;
    backend::BlockReason reason = backend::BlockReason::None;
    Bytes encoded; ///< encodeTlp() bytes

    /** Stable text form (corpus file contents). */
    std::string serialize() const;
    /** Parse a corpus file; nullopt on any malformed field. */
    static std::optional<CorpusEntry> parse(const std::string &text);
};

/** Write one entry to @p dir/<name>.tlp. @return success. */
bool saveCorpusEntry(const std::string &dir, const CorpusEntry &entry);
/** Load one corpus file. */
std::optional<CorpusEntry> loadCorpusFile(const std::string &path);
/** Load every *.tlp in @p dir, sorted by filename (deterministic). */
std::vector<CorpusEntry> loadCorpusDir(const std::string &dir);

/** Aggregate outcome counters for one fuzzing run. */
struct FuzzStats
{
    std::uint64_t iterations = 0;
    /** Mutants the strict codec refused to decode. */
    std::uint64_t decodeRejects = 0;
    std::uint64_t blocked = 0;
    std::uint64_t allowed = 0;
    /** Inputs that hit a previously-unseen coverage bucket. */
    std::uint64_t newCoverage = 0;
    /** Security-invariant violations found (must stay 0). */
    std::uint64_t oracleViolations = 0;
    std::array<std::uint64_t, backend::kBlockReasonCount>
        blockedByReason{};

    bool operator==(const FuzzStats &) const = default;
};

class TlpFuzzer
{
  public:
    explicit TlpFuzzer(std::uint64_t seed);

    /**
     * Install the adversarialSeedTlps() catalog plus a handful of
     * benign in-policy TLPs (so mutation explores the allow/deny
     * boundary from both sides). Each seed is classified and, when
     * it covers a new bucket, enters the corpus under its own name.
     */
    void seedCorpus();

    /**
     * Classify one named TLP and admit it to the corpus when it is
     * blocked and the name is new. Seeds are admitted by NAME, not
     * coverage: two catalog classes may share a decision path (same
     * bucket) yet both deserve a replay entry — the curated names
     * are the regression suite's identity. Fuzz-found entries, in
     * contrast, are gated on fresh coverage (see run()).
     */
    void addSeed(const std::string &name, const pcie::Tlp &tlp);

    /** Run @p iterations mutate-classify-minimize cycles. */
    void run(std::uint64_t iterations);

    const FuzzStats &stats() const { return stats_; }
    /** Interesting minimized inputs, in discovery order. */
    const std::vector<CorpusEntry> &corpus() const { return corpus_; }
    /** Distinct coverage buckets observed. */
    std::size_t coverageCount() const { return coverage_.size(); }
    /** Oracle-violation descriptions (empty on a healthy run). */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    /**
     * Write every corpus entry to @p dir (created if absent) as
     * <name>.tlp. @return number of files that did not exist before
     * (the "new findings" count a CI soak job uploads).
     */
    std::size_t writeCorpus(const std::string &dir) const;

    /** The filter under test (for counter inspection). */
    const sc::PacketFilter &filter() const { return filter_; }

  private:
    std::uint64_t coverageKey(const pcie::Tlp &tlp,
                              const backend::FilterVerdict &verdict) const;
    /** Check security invariants; records a violation on failure. */
    void checkOracle(const pcie::Tlp &tlp,
                     const backend::FilterVerdict &verdict);
    /** Byte-level mutation of an encoded TLP. */
    Bytes mutateBytes(const Bytes &parent);
    /** Structure-aware mutation of a decoded TLP. */
    pcie::Tlp mutateFields(pcie::Tlp tlp);
    /** Greedy minimization preserving the coverage key. */
    pcie::Tlp minimize(pcie::Tlp tlp, std::uint64_t key);
    /** Classify + bookkeeping; true when coverage was new. */
    bool execute(const pcie::Tlp &tlp, std::uint64_t *keyOut,
                 backend::FilterVerdict *verdictOut);

    sim::Rng rng_;
    sc::PacketFilter filter_;
    FuzzStats stats_;
    /** coverage key -> corpus index (or SIZE_MAX for seen-only). */
    std::map<std::uint64_t, std::size_t> coverage_;
    std::vector<CorpusEntry> corpus_;
    /** Names already in corpus_ (seed dedup across reloads). */
    std::set<std::string> corpusNames_;
    /** Mutation population: encoded parents (corpus + benign seeds). */
    std::vector<Bytes> population_;
    std::vector<std::string> violations_;
};

} // namespace ccai::attack

#endif // CCAI_ATTACK_TLP_FUZZER_HH
