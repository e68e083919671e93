/**
 * @file
 * Figure 11 reproduction (RQ5): effectiveness of the §5
 * optimizations. Compares the fully-optimized ccAI against the
 * non-optimized design (per-record MMIO reads, per-subtask notify
 * writes, software AES, single crypto thread) on Llama-2-7B-Chat:
 * token sweep at batch 1 and batch sweep at token 128. The paper
 * reports the optimization removing ~87-90% of the added E2E
 * latency overhead.
 */

#include "bench_util.hh"

using namespace ccai;
using namespace ccai::bench;

namespace
{

struct AblationRow
{
    std::string label;
    double vanillaS;
    double optimizedS;
    double noOptS;

    double
    overheadReductionPct() const
    {
        double opt_overhead = optimizedS - vanillaS;
        double noopt_overhead = noOptS - vanillaS;
        return 100.0 * (1.0 - opt_overhead / noopt_overhead);
    }
};

AblationRow
runPoint(const std::string &label, std::uint32_t batch,
         std::uint32_t tokens)
{
    llm::InferenceConfig cfg;
    cfg.model = llm::ModelSpec::llama2_7b();
    cfg.batch = batch;
    cfg.inTokens = tokens;

    PlatformConfig vanilla;
    vanilla.secure = false;

    PlatformConfig optimized;
    optimized.secure = true;

    PlatformConfig no_opt;
    no_opt.secure = true;
    no_opt.adaptorConfig = tvm::AdaptorConfig::noOptimizations();

    AblationRow row;
    row.label = label;
    row.vanillaS = runInference(vanilla, cfg).e2eSeconds;
    row.optimizedS = runInference(optimized, cfg).e2eSeconds;
    row.noOptS = runInference(no_opt, cfg).e2eSeconds;
    return row;
}

void
printRow(const AblationRow &row)
{
    std::printf("%-10s %11.3fs %11.3fs %11.3fs %12.2f%%\n",
                row.label.c_str(), row.vanillaS, row.optimizedS,
                row.noOptS, row.overheadReductionPct());
}

} // namespace

int
main()
{
    LogConfig::Quiet quiet;

    std::printf("=== Figure 11: optimization ablation, "
                "Llama-2-7B-Chat on A100 ===\n");
    std::printf("(overhead reduction = share of the non-optimized "
                "design's added latency the optimizations remove)\n");

    std::printf("\nToken sweep (batch=1)\n");
    std::printf("%-10s %12s %12s %12s %13s\n", "config", "vanilla",
                "ccAI", "No Opt", "reduction");
    std::printf("%s\n", std::string(64, '-').c_str());
    for (std::uint32_t tokens : {64u, 128u, 256u, 512u, 1024u}) {
        printRow(runPoint(std::to_string(tokens) + "-tok", 1, tokens));
        std::fflush(stdout);
        std::fprintf(stderr, "fig11: %u-tok done\n", tokens);
    }

    std::printf("\nBatch sweep (tok=128)\n");
    std::printf("%-10s %12s %12s %12s %13s\n", "config", "vanilla",
                "ccAI", "No Opt", "reduction");
    std::printf("%s\n", std::string(64, '-').c_str());
    for (std::uint32_t batch : {1u, 3u, 6u, 12u, 24u}) {
        printRow(runPoint(std::to_string(batch) + "-bat", batch, 128));
        std::fflush(stdout);
        std::fprintf(stderr, "fig11: %u-bat done\n", batch);
    }
    return 0;
}
