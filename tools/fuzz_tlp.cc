/**
 * @file
 * Coverage-guided TLP fuzzing driver.
 *
 *   fuzz_tlp [--seed N] [--iters N] [--corpus-dir DIR]
 *            [--emit-seeds] [--json] [--replay-trace PATH]
 *
 * Seeds from the adversarial catalog (plus any existing corpus in
 * --corpus-dir), runs the mutation engine for --iters iterations,
 * reports the per-reason blocked-packet table, and — with
 * --corpus-dir — writes minimized new findings back as corpus
 * entries. --emit-seeds skips fuzzing and just materializes the
 * deterministic seed corpus (how tests/attack/corpus/ was made).
 * --replay-trace re-injects the final corpus through a booted
 * secure Platform from a hostile endpoint and exports a Perfetto
 * trace of the session (the CI soak artifact).
 *
 * Exit status is non-zero if any oracle violation (a silently
 * admitted out-of-window DMA, an admitted malformed TLP) was found.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "attack/hostile_endpoint.hh"
#include "attack/tlp_fuzzer.hh"
#include "ccai/platform.hh"
#include "sim/rng.hh"

using namespace ccai;
using namespace ccai::attack;

namespace
{

void
replayThroughPlatform(const TlpFuzzer &fuzzer,
                      const std::string &tracePath)
{
    Platform p(PlatformConfig{.secure = true});
    p.system().tracer().setEnabled(true);
    TrustReport report = p.establishTrust();
    if (!report.ok())
        fatal("trust establishment failed: %s",
              report.failure.c_str());

    HostileEndpoint evil(p.system(), "fuzz_evil");
    auto link = std::make_unique<pcie::DuplexLink>(
        p.system(), "sw_fuzz_evil", &p.rootSwitch(), &evil,
        pcie::LinkConfig{});
    int port = p.rootSwitch().addPort(&link->downstream());
    p.rootSwitch().mapRoutingId(pcie::wellknown::kMaliciousDevice,
                                port);
    evil.connectUpstream(&link->upstream());

    std::size_t echoes = 0;
    for (const auto &entry : fuzzer.corpus()) {
        auto tlp = pcie::decodeTlp(entry.encoded);
        if (!tlp)
            continue;
        // A forged successful completion naming ourselves as the
        // requester is ID-routed straight back to this port by the
        // switch. Receiving our own forgery is an echo, not leaked
        // data — skip it so loot stays a pure exfiltration signal.
        if (tlp->type == pcie::TlpType::Completion &&
            tlp->requester == evil.bdf() &&
            tlp->cplStatus == pcie::CplStatus::SuccessfulCompletion) {
            ++echoes;
            continue;
        }
        evil.sendRaw(*tlp);
    }
    p.run();
    if (!evil.loot().empty())
        fatal("replay leaked %zu completions with data",
              evil.loot().size());
    if (!p.exportTrace(tracePath))
        fatal("failed to export trace to %s", tracePath.c_str());
    std::printf("replayed %zu corpus entries through Platform "
                "(aborts=%llu, loot=0, self-echoes skipped=%zu), "
                "trace: %s\n",
                fuzzer.corpus().size(),
                static_cast<unsigned long long>(evil.aborts()),
                echoes, tracePath.c_str());
}

void
printText(const TlpFuzzer &fuzzer, std::size_t freshFiles)
{
    const FuzzStats &s = fuzzer.stats();
    std::printf("iterations:        %llu\n",
                static_cast<unsigned long long>(s.iterations));
    std::printf("decode rejects:    %llu\n",
                static_cast<unsigned long long>(s.decodeRejects));
    std::printf("allowed:           %llu\n",
                static_cast<unsigned long long>(s.allowed));
    std::printf("blocked:           %llu\n",
                static_cast<unsigned long long>(s.blocked));
    std::printf("coverage buckets:  %zu\n", fuzzer.coverageCount());
    std::printf("corpus entries:    %zu (%zu new on disk)\n",
                fuzzer.corpus().size(), freshFiles);
    std::printf("oracle violations: %llu\n",
                static_cast<unsigned long long>(s.oracleViolations));
    std::printf("blocked by reason:\n");
    for (std::size_t i = 1; i < backend::kBlockReasonCount; ++i)
        std::printf("  %-20s %llu\n",
                    backend::blockReasonName(
                        static_cast<backend::BlockReason>(i)),
                    static_cast<unsigned long long>(
                        s.blockedByReason[i]));
    for (const auto &v : fuzzer.violations())
        std::printf("VIOLATION: %s\n", v.c_str());
}

void
printJson(const TlpFuzzer &fuzzer, std::uint64_t seed,
          std::size_t freshFiles)
{
    const FuzzStats &s = fuzzer.stats();
    std::printf("{\n");
    std::printf("  \"seed\": %llu,\n",
                static_cast<unsigned long long>(seed));
    std::printf("  \"iterations\": %llu,\n",
                static_cast<unsigned long long>(s.iterations));
    std::printf("  \"decode_rejects\": %llu,\n",
                static_cast<unsigned long long>(s.decodeRejects));
    std::printf("  \"allowed\": %llu,\n",
                static_cast<unsigned long long>(s.allowed));
    std::printf("  \"blocked\": %llu,\n",
                static_cast<unsigned long long>(s.blocked));
    std::printf("  \"coverage_buckets\": %zu,\n",
                fuzzer.coverageCount());
    std::printf("  \"corpus_entries\": %zu,\n",
                fuzzer.corpus().size());
    std::printf("  \"new_corpus_files\": %zu,\n", freshFiles);
    std::printf("  \"oracle_violations\": %llu,\n",
                static_cast<unsigned long long>(s.oracleViolations));
    std::printf("  \"blocked_by_reason\": {\n");
    for (std::size_t i = 1; i < backend::kBlockReasonCount; ++i)
        std::printf("    \"%s\": %llu%s\n",
                    backend::blockReasonName(
                        static_cast<backend::BlockReason>(i)),
                    static_cast<unsigned long long>(
                        s.blockedByReason[i]),
                    i + 1 < backend::kBlockReasonCount ? "," : "");
    std::printf("  }\n}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    sim::applySeedFlag(argc, argv);
    std::uint64_t iters = 100000;
    std::string corpusDir;
    std::string tracePath;
    bool emitSeedsOnly = false;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--iters") {
            iters = std::strtoull(value(), nullptr, 0);
        } else if (arg == "--corpus-dir") {
            corpusDir = value();
        } else if (arg == "--replay-trace") {
            tracePath = value();
        } else if (arg == "--emit-seeds") {
            emitSeedsOnly = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--seed") {
            ++i; // consumed by applySeedFlag
        } else {
            fatal("unknown argument %s", arg.c_str());
        }
    }

    const std::uint64_t seed = sim::resolveSeed(0xF5EED);
    TlpFuzzer fuzzer(seed);
    fuzzer.seedCorpus();

    // Build on what earlier runs already found.
    if (!corpusDir.empty() &&
        std::filesystem::is_directory(corpusDir)) {
        for (const auto &entry : loadCorpusDir(corpusDir)) {
            auto tlp = pcie::decodeTlp(entry.encoded);
            if (tlp)
                fuzzer.addSeed(entry.name, *tlp);
        }
    }

    if (!emitSeedsOnly)
        fuzzer.run(iters);

    std::size_t freshFiles = 0;
    if (!corpusDir.empty())
        freshFiles = fuzzer.writeCorpus(corpusDir);

    if (json)
        printJson(fuzzer, seed, freshFiles);
    else
        printText(fuzzer, freshFiles);

    if (!tracePath.empty())
        replayThroughPlatform(fuzzer, tracePath);

    return fuzzer.stats().oracleViolations == 0 ? 0 : 1;
}
