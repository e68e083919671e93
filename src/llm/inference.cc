#include "inference.hh"

#include <algorithm>

#include "common/logging.hh"
#include "llm/roofline.hh"
#include "pcie/memory_map.hh"

namespace ccai::llm
{

namespace mm = pcie::memmap;

InferenceEngine::InferenceEngine(sim::System &sys, std::string name,
                                 tvm::Runtime &runtime,
                                 const InferenceConfig &config)
    : sim::SimObject(sys, std::move(name)), runtime_(runtime),
      config_(config),
      kv_(std::make_unique<KvCacheManager>(config_.model,
                                           config_.kvCapBytes)),
      sampler_(0xBEEF)
{
    activationsDevAddr_ = mm::kXpuVram.base +
                          config_.model.weightBytes() + kMiB;
}

void
InferenceEngine::launchLayerKernels(Tick layerTime)
{
    const ModelSpec &m = config_.model;
    Tick per_kernel = layerTime / m.kernelsPerLayer;
    for (int layer = 0; layer < m.layers; ++layer) {
        for (int k = 0; k < m.kernelsPerLayer; ++k)
            runtime_.launchKernel(per_kernel);
    }
    metrics_.kernelLaunches +=
        std::uint64_t(m.layers) * m.kernelsPerLayer;
}

void
InferenceEngine::loadModel(std::function<void()> done)
{
    runtime_.memcpyH2D(kWeightsDevAddr + mm::kXpuVram.base,
                       std::nullopt, config_.model.weightBytes(),
                       std::move(done));
}

void
InferenceEngine::run(MetricsCb done)
{
    metrics_ = InferenceMetrics{};
    seqLen_ = config_.inTokens;
    kv_ = std::make_unique<KvCacheManager>(config_.model,
                                           config_.kvCapBytes);
    kv_->onPrefill(config_.batch, config_.inTokens);

    Tick start = curTick();

    // Per-request setup: in secure mode the Adaptor refreshes the
    // packet policy covering this request's bounce windows.
    runtime_.beginRequest([this, start, done = std::move(done)]() {
        // Upload the prompt token ids for the whole batch.
        std::uint64_t prompt_bytes =
            PromptSampler::batchBytes(config_.batch, config_.inTokens);
        runtime_.memcpyH2D(
            activationsDevAddr_, std::nullopt, prompt_bytes,
            [this, start, done = std::move(done)]() {
                // Prefill: all layers over the full prompt.
                const ModelSpec &m = config_.model;
                launchLayerKernels(prefillTicks(m, config_.device,
                                                config_.batch,
                                                config_.inTokens,
                                                m.layers));
                decodeStep(0, start, std::move(done));
            });
    });
}

void
InferenceEngine::decodeStep(std::uint32_t step, Tick startTick,
                            MetricsCb done)
{
    std::uint32_t out_tokens = config_.effectiveOutTokens();
    if (step >= out_tokens) {
        metrics_.e2eSeconds = ticksToSeconds(curTick() - startTick);
        metrics_.decodeSteps = out_tokens;
        metrics_.tps = metrics_.e2eSeconds > 0
                           ? (double(config_.batch) * out_tokens) /
                                 metrics_.e2eSeconds
                           : 0.0;
        done(metrics_);
        return;
    }

    // One decode step: every layer streams weights + KV.
    const ModelSpec &m = config_.model;
    launchLayerKernels(decodeTicks(m, config_.device, config_.batch,
                                   seqLen_, m.layers));
    ++seqLen_;

    KvSwapPlan plan = kv_->onDecodeStep();
    if (plan.any()) {
        // Stream only the attention window's spilled share.
        std::uint64_t window_bytes =
            std::uint64_t(config_.batch) *
            config_.model.kvBytesPerToken() *
            std::min<std::uint64_t>(config_.swapWindowTokens, seqLen_);
        std::uint64_t swap = std::min<std::uint64_t>(
            plan.refillBytes,
            std::uint64_t(window_bytes * kv_->spillFraction()));
        metrics_.swapBytes += 2 * swap;

        runtime_.memcpyD2H(
            activationsDevAddr_, swap, true,
            [this, swap, step, startTick,
             done = std::move(done)](Bytes) {
                runtime_.memcpyH2D(
                    activationsDevAddr_, std::nullopt, swap,
                    [this, step, startTick, done = std::move(done)]() {
                        finishStep(step, startTick, std::move(done));
                    },
                    tvm::TransferKind::KvSwap);
            },
            tvm::TransferKind::KvSwap);
        return;
    }
    finishStep(step, startTick, std::move(done));
}

void
InferenceEngine::finishStep(std::uint32_t step, Tick startTick,
                            MetricsCb done)
{
    // Sampling: logits come back to the host, the chosen token ids
    // go back down for the next step.
    std::uint64_t logits_bytes =
        std::uint64_t(config_.batch) * config_.model.logitsBytes();
    runtime_.memcpyD2H(
        activationsDevAddr_, logits_bytes, true,
        [this, step, startTick, done = std::move(done)](Bytes) {
            if (step == 0) {
                metrics_.ttftSeconds =
                    ticksToSeconds(curTick() - startTick);
            }
            std::uint64_t token_bytes = std::uint64_t(config_.batch) * 4;
            runtime_.memcpyH2D(
                activationsDevAddr_, std::nullopt, token_bytes,
                [this, step, startTick, done = std::move(done)]() {
                    decodeStep(step + 1, startTick, std::move(done));
                });
        });
}

} // namespace ccai::llm
