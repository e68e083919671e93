/**
 * @file
 * LLM workload tests: model zoo parameters, prompt sampler, KV-cache
 * swap planning, the inference cost model, and a full inference
 * smoke run on both vanilla and secure platforms.
 */

#include <gtest/gtest.h>

#include "ccai/experiment.hh"
#include "ccai/platform.hh"
#include "llm/roofline.hh"

using namespace ccai;
using namespace ccai::llm;

TEST(ModelSpec, ZooHasNineModels)
{
    EXPECT_EQ(ModelSpec::all().size(), 9u);
    EXPECT_EQ(ModelSpec::byName("Llama2-7b").layers, 32);
    EXPECT_EQ(ModelSpec::byName("Babel-83b").quant, Quant::INT2);
}

TEST(ModelSpec, WeightBytesFollowQuantization)
{
    const ModelSpec &fp16 = ModelSpec::llama2_7b();
    EXPECT_EQ(fp16.weightBytes(), std::uint64_t(7.0e9 * 2));
    const ModelSpec &int4 = ModelSpec::llama3_70b();
    EXPECT_EQ(int4.weightBytes(), std::uint64_t(70.0e9 * 0.5));
    EXPECT_EQ(quantBytesPerParam(Quant::INT2), 0.25);
}

TEST(ModelSpec, KvBytesScaleWithGqa)
{
    // Llama3-8b uses GQA (ratio 0.25) -> 4x less KV per token than
    // an MHA model with the same dims.
    const ModelSpec &l3 = ModelSpec::llama3_8b();
    std::uint64_t mha = 2ull * l3.layers * l3.hidden * 2;
    EXPECT_EQ(l3.kvBytesPerToken(), mha / 4);
}

TEST(ModelSpec, LogitsBytesFollowVocab)
{
    EXPECT_EQ(ModelSpec::llama2_7b().logitsBytes(), 32000u * 2);
    EXPECT_GT(ModelSpec::bloom3b().logitsBytes(),
              ModelSpec::llama2_7b().logitsBytes());
}

TEST(PromptSampler, FixedLengthExact)
{
    PromptSampler sampler(1);
    Prompt p = sampler.fixedLength(128);
    EXPECT_EQ(p.length(), 128u);
    EXPECT_FALSE(p.text.empty());
}

TEST(PromptSampler, VariableLengthInRange)
{
    PromptSampler sampler(2);
    for (int i = 0; i < 100; ++i) {
        Prompt p = sampler.variableLength(4, 924);
        EXPECT_GE(p.length(), 4u);
        EXPECT_LE(p.length(), 924u);
    }
}

TEST(PromptSampler, Deterministic)
{
    PromptSampler a(3), b(3);
    EXPECT_EQ(a.fixedLength(64).tokens, b.fixedLength(64).tokens);
}

TEST(PromptSampler, BatchBytesFourPerToken)
{
    EXPECT_EQ(PromptSampler::batchBytes(8, 128), 8u * 128 * 4);
}

TEST(KvCache, NoCapNoSwap)
{
    KvCacheManager kv(ModelSpec::llama2_7b(), 0);
    kv.onPrefill(4, 512);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(kv.onDecodeStep().any());
    EXPECT_EQ(kv.spilledBytes(), 0u);
}

TEST(KvCache, SwapStartsWhenCapExceeded)
{
    const ModelSpec &m = ModelSpec::llama2_7b();
    std::uint64_t cap = 10 * m.kvBytesPerToken();
    KvCacheManager kv(m, cap);
    kv.onPrefill(1, 8); // 8 tokens resident, under cap
    EXPECT_FALSE(kv.onDecodeStep().any()); // 9
    EXPECT_FALSE(kv.onDecodeStep().any()); // 10 == cap
    KvSwapPlan plan = kv.onDecodeStep();   // 11 > cap
    EXPECT_TRUE(plan.any());
    EXPECT_EQ(plan.evictBytes, m.kvBytesPerToken());
    EXPECT_GT(kv.spillFraction(), 0.0);
}

TEST(KvCache, SpillFractionGrows)
{
    const ModelSpec &m = ModelSpec::llama2_7b();
    KvCacheManager kv(m, 10 * m.kvBytesPerToken());
    kv.onPrefill(1, 10);
    kv.onDecodeStep();
    double f1 = kv.spillFraction();
    for (int i = 0; i < 10; ++i)
        kv.onDecodeStep();
    EXPECT_GT(kv.spillFraction(), f1);
}

TEST(InferenceConfig, DefaultOutputTokensChatShaped)
{
    InferenceConfig cfg;
    cfg.inTokens = 128;
    EXPECT_EQ(cfg.effectiveOutTokens(), 128u / 2 + 128);
    cfg.outTokens = 32;
    EXPECT_EQ(cfg.effectiveOutTokens(), 32u);
}

namespace
{

/** Per-layer roofline times, as the engine prices each layer. */
Tick
prefillLayer(const InferenceConfig &c)
{
    return prefillTicks(c.model, c.device, c.batch, c.inTokens,
                        c.model.layers);
}

Tick
decodeLayer(const InferenceConfig &c, std::uint32_t seqLen)
{
    return decodeTicks(c.model, c.device, c.batch, seqLen,
                       c.model.layers);
}

} // namespace

TEST(InferenceEngine, CostModelScalesWithTokensAndBatch)
{
    InferenceConfig small;
    small.inTokens = 64;
    small.batch = 1;
    InferenceConfig big = small;
    big.inTokens = 2048;
    InferenceConfig batched = small;
    batched.batch = 32;

    EXPECT_GT(prefillLayer(big), prefillLayer(small));
    EXPECT_GT(prefillLayer(batched), prefillLayer(small));
    // Decode is bandwidth-bound at batch 1: longer context costs
    // more KV traffic.
    EXPECT_GT(decodeLayer(small, 4096), decodeLayer(small, 64));
}

TEST(InferenceEngine, DecodeFasterOnFasterDevice)
{
    InferenceConfig on_a100;
    on_a100.device = xpu::XpuSpec::a100();
    InferenceConfig on_t4 = on_a100;
    on_t4.device = xpu::XpuSpec::t4();
    EXPECT_LT(decodeLayer(on_a100, 128), decodeLayer(on_t4, 128));
}

TEST(InferenceEngine, VanillaRunProducesSaneMetrics)
{
    InferenceConfig cfg;
    cfg.model = ModelSpec::llama2_7b();
    cfg.batch = 1;
    cfg.inTokens = 32;
    cfg.outTokens = 16;

    InferenceMetrics m =
        runInference(PlatformConfig{.secure = false}, cfg);
    EXPECT_GT(m.e2eSeconds, 0.0);
    EXPECT_GT(m.ttftSeconds, 0.0);
    EXPECT_LT(m.ttftSeconds, m.e2eSeconds);
    EXPECT_EQ(m.decodeSteps, 16u);
    EXPECT_NEAR(m.tps, 16.0 / m.e2eSeconds, 0.01);
    EXPECT_EQ(m.kernelLaunches,
              std::uint64_t(cfg.model.layers) *
                  cfg.model.kernelsPerLayer * (16 + 1));
}

TEST(InferenceEngine, SecureRunCompletesWithBoundedOverhead)
{
    InferenceConfig cfg;
    cfg.batch = 1;
    cfg.inTokens = 32;
    cfg.outTokens = 8;

    ComparisonResult r = runComparison(cfg);
    EXPECT_GT(r.secure.e2eSeconds, r.vanilla.e2eSeconds);
    EXPECT_LT(r.e2eOverheadPct(), 50.0)
        << "tiny runs may amplify fixed costs, but not absurdly";
    EXPECT_EQ(r.secure.decodeSteps, r.vanilla.decodeSteps);
}

TEST(InferenceEngine, KvSwapGeneratesTraffic)
{
    InferenceConfig cfg;
    cfg.batch = 1;
    cfg.inTokens = 64;
    cfg.outTokens = 16;
    // Cap below the prompt's KV footprint to force swapping.
    cfg.kvCapBytes = 32 * cfg.model.kvBytesPerToken();

    InferenceMetrics m =
        runInference(PlatformConfig{.secure = false}, cfg);
    EXPECT_GT(m.swapBytes, 0u);

    InferenceConfig no_cap = cfg;
    no_cap.kvCapBytes = 0;
    InferenceMetrics base =
        runInference(PlatformConfig{.secure = false}, no_cap);
    EXPECT_GT(m.e2eSeconds, base.e2eSeconds);
}
