/**
 * @file
 * LLM inference engine: prices every layer of transformer
 * prefill/decode with the shared roofline (llm/roofline.hh) and
 * drives real command and data traffic through the simulated
 * runtime/driver/PCIe stack. Both the vanilla baseline and ccAI run
 * this exact engine; only the runtime mode differs, so measured
 * deltas isolate ccAI's overhead — which is what the paper's
 * evaluation reports.
 */

#ifndef CCAI_LLM_INFERENCE_HH
#define CCAI_LLM_INFERENCE_HH

#include <functional>

#include "llm/kv_cache.hh"
#include "llm/model_spec.hh"
#include "llm/prompts.hh"
#include "tvm/runtime.hh"
#include "xpu/xpu_spec.hh"

namespace ccai::llm
{

/** One benchmark point's configuration. */
struct InferenceConfig
{
    ModelSpec model = ModelSpec::llama2_7b();
    xpu::XpuSpec device = xpu::XpuSpec::a100();
    std::uint32_t batch = 1;
    std::uint32_t inTokens = 128;
    /** 0 = derive from input length (chat-style responses). */
    std::uint32_t outTokens = 0;
    /** KV-cache device budget; 0 = unconstrained (no swapping). */
    std::uint64_t kvCapBytes = 0;
    /** Attention window streamed per step while spilled (tokens). */
    std::uint32_t swapWindowTokens = 160;

    /** Response length: half the question plus a floor. */
    std::uint32_t
    effectiveOutTokens() const
    {
        return outTokens ? outTokens : inTokens / 2 + 128;
    }
};

/** Metrics of one inference run (the paper's §8.3 metrics). */
struct InferenceMetrics
{
    double e2eSeconds = 0.0;  ///< end-to-end latency
    double ttftSeconds = 0.0; ///< time to first token
    double tps = 0.0;         ///< output tokens per second
    std::uint64_t decodeSteps = 0;
    std::uint64_t kernelLaunches = 0;
    std::uint64_t swapBytes = 0;
};

/**
 * The engine. Asynchronous: run() drives the event queue via
 * callbacks and hands the metrics to the completion callback.
 */
class InferenceEngine : public sim::SimObject
{
  public:
    using MetricsCb = std::function<void(InferenceMetrics)>;

    InferenceEngine(sim::System &sys, std::string name,
                    tvm::Runtime &runtime,
                    const InferenceConfig &config);

    /**
     * Upload the model weights (one bulk H2D transfer). Excluded
     * from inference metrics, as in the paper's methodology.
     */
    void loadModel(std::function<void()> done);

    /** Run one inference request and report metrics. */
    void run(MetricsCb done);

    const InferenceConfig &config() const { return config_; }

  private:
    void launchLayerKernels(Tick layerTime);
    void decodeStep(std::uint32_t step, Tick startTick,
                    MetricsCb done);
    void finishStep(std::uint32_t step, Tick startTick,
                    MetricsCb done);

    tvm::Runtime &runtime_;
    InferenceConfig config_;
    std::unique_ptr<KvCacheManager> kv_;
    PromptSampler sampler_;
    InferenceMetrics metrics_;
    std::uint32_t seqLen_ = 0;

    /** Device VRAM layout: weights at 0, activations after. */
    static constexpr Addr kWeightsDevAddr = 0;
    Addr activationsDevAddr_ = 0;
};

} // namespace ccai::llm

#endif // CCAI_LLM_INFERENCE_HH
