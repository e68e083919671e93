/**
 * @file
 * The one roofline cost model of transformer inference. Prefill is
 * compute-bound (2 FLOPs per parameter per token); a decode step is
 * the slower of streaming the weights plus the KV cache and the
 * step's FLOPs. Pure functions of (model, device): the packet-level
 * llm::InferenceEngine prices one layer of a pass with them and the
 * fleet-level serve::LoadGenerator prices a whole pass.
 *
 * @p parts is the share of the model one call covers: model.layers
 * prices one layer, 1 the whole model. Division and multiplication
 * by 1 are exact in IEEE double, so a whole-model call equals the
 * unsplit formula bit for bit; summing per-layer calls would not,
 * since each call truncates to whole ticks. Launch overhead is not
 * part of the roofline: the engine pays it per kernel on the xPU,
 * serve once per pass.
 */

#ifndef CCAI_LLM_ROOFLINE_HH
#define CCAI_LLM_ROOFLINE_HH

#include <algorithm>
#include <cstdint>

#include "common/types.hh"
#include "llm/model_spec.hh"
#include "xpu/xpu_spec.hh"

namespace ccai::llm
{

/** Kernel time of prefilling @p tokens for @p batch sequences. */
inline Tick
prefillTicks(const ModelSpec &m, const xpu::XpuSpec &d,
             std::uint32_t batch, std::uint32_t tokens, int parts)
{
    double flops = 2.0 * (m.params / parts) * batch * tokens;
    double seconds =
        flops / (d.fp16Tflops * 1e12 * d.computeEfficiency);
    return secondsToTicks(seconds);
}

/** Kernel time of one decode step at @p seqLen context. */
inline Tick
decodeTicks(const ModelSpec &m, const xpu::XpuSpec &d,
            std::uint32_t batch, std::uint32_t seqLen, int parts)
{
    double bw = d.memBwGBs * 1e9 * d.bandwidthEfficiency;

    // Bandwidth-bound: stream the weights plus the KV cache of the
    // whole batch.
    double weight_bytes = double(m.weightBytes()) / parts;
    double kv_bytes = double(m.kvBytesPerToken()) / parts *
                      double(seqLen) * batch;
    double bw_seconds = (weight_bytes + kv_bytes) / bw;

    // Compute-bound alternative (large batches).
    double flops = 2.0 * (m.params / parts) * batch;
    double compute_seconds =
        flops / (d.fp16Tflops * 1e12 * d.computeEfficiency);

    return secondsToTicks(std::max(bw_seconds, compute_seconds));
}

} // namespace ccai::llm

#endif // CCAI_LLM_ROOFLINE_HH
