/**
 * @file
 * Parameterized sweep over the full model zoo: every model's cost
 * profile must be internally consistent (positive times, decode
 * bandwidth-bound at batch 1, prefill scaling), and a short secure
 * inference must complete with sane metrics on each.
 */

#include <gtest/gtest.h>

#include "ccai/experiment.hh"
#include "llm/roofline.hh"

using namespace ccai;
using namespace ccai::llm;

class ModelZooSweep : public ::testing::TestWithParam<int>
{
  protected:
    const ModelSpec &model() const
    {
        return ModelSpec::all()[GetParam()];
    }
};

TEST_P(ModelZooSweep, GeometryIsConsistent)
{
    const ModelSpec &m = model();
    EXPECT_GT(m.params, 0.0);
    EXPECT_GT(m.layers, 0);
    EXPECT_GT(m.hidden, 0);
    EXPECT_GT(m.vocab, 0);
    EXPECT_GT(m.kvRatio, 0.0);
    EXPECT_LE(m.kvRatio, 1.0);
    EXPECT_GE(m.weightBytes(), std::uint64_t(m.params) / 4)
        << "INT2 is the lowest quantization";
    EXPECT_LE(m.weightBytes(), std::uint64_t(m.params) * 2);
}

TEST_P(ModelZooSweep, QuantizedModelsFitTheA100)
{
    // The paper quantizes the heavy models specifically so every
    // benchmark runs on the 80 GiB A100.
    EXPECT_LT(model().weightBytes(),
              xpu::XpuSpec::a100().vramBytes);
}

TEST_P(ModelZooSweep, CostModelOrderings)
{
    const ModelSpec &m = model();
    const xpu::XpuSpec &d = xpu::XpuSpec::a100();

    EXPECT_GT(prefillTicks(m, d, 1, 128, m.layers), 0u);
    EXPECT_GT(decodeTicks(m, d, 1, 1, m.layers), 0u);
    // Longer context costs more KV bandwidth.
    EXPECT_GT(decodeTicks(m, d, 1, 8192, m.layers),
              decodeTicks(m, d, 1, 1, m.layers));
}

TEST_P(ModelZooSweep, ShortVanillaInferenceSaneMetrics)
{
    InferenceConfig cfg;
    cfg.model = model();
    cfg.batch = 1;
    cfg.inTokens = 16;
    cfg.outTokens = 4;
    InferenceMetrics m =
        runInference(PlatformConfig{.secure = false}, cfg);
    EXPECT_GT(m.e2eSeconds, 0.0);
    EXPECT_GT(m.ttftSeconds, 0.0);
    EXPECT_LE(m.ttftSeconds, m.e2eSeconds);
    EXPECT_EQ(m.decodeSteps, 4u);
    EXPECT_GT(m.tps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllNineModels, ModelZooSweep,
                         ::testing::Range(0, 9));
