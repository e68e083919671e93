#include "backend/protection_backend.hh"

namespace ccai::backend
{

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::CcaiSc:
        return "ccai";
      case Kind::H100Cc:
        return "h100cc";
      case Kind::Acai:
        return "acai";
    }
    return "?";
}

std::optional<Kind>
parseKind(std::string_view name)
{
    if (name == "ccai" || name == "ccai-sc" || name == "sc")
        return Kind::CcaiSc;
    if (name == "h100cc" || name == "h100" || name == "gpu-cc")
        return Kind::H100Cc;
    if (name == "acai")
        return Kind::Acai;
    return std::nullopt;
}

CostModel
costModelFor(Kind kind)
{
    CostModel m;
    switch (kind) {
      case Kind::CcaiSc:
        // The interposer's costs are fully simulated (Adaptor AES-NI
        // seal, PCIe-SC line-rate engines), so no per-byte or
        // per-transfer cost is set, and a ccAI platform hands this
        // model to no component. The non-zero entries feed the
        // roofline serving model and the comparison table: the
        // measured Fig-8 steady-state data-path inflation, the
        // Adaptor's per-request policy-refresh latency and the
        // trust-establishment time.
        m.computeOverhead = 1.12;
        m.perRequestSetup = 150 * kTicksPerUs;
        m.sessionEstablishTicks = 120 * kTicksPerMs;
        break;
      case Kind::H100Cc:
        // Device-side GCM, encrypted bounce buffers, no interposer:
        // the CPU seals/opens every payload through a bounce buffer
        // at AES-NI rates while the GPU's on-die engine runs near
        // line rate; each transfer pays CC doorbell/IV management
        // and attestation takes an SPDM session with the GPU RoT.
        m.hostSealBytesPerSec = 4.5e9;
        m.hostOpenBytesPerSec = 4.5e9;
        m.deviceCryptoBytesPerSec = 40.0e9;
        m.perTransferSetup = 2 * kTicksPerUs;
        m.perRequestSetup = 60 * kTicksPerUs;
        m.sessionEstablishTicks = 1500 * kTicksPerMs;
        m.computeOverhead = 1.04;
        break;
      case Kind::Acai:
        // TEE extended to the accelerator over plain PCIe: no
        // per-byte crypto anywhere — isolation comes from the
        // realm's stage-2 translation, paid as a fixed granule
        // delegation / world-switch cost per transfer and a long
        // attestation of the combined realm at session start.
        m.perTransferSetup = 600 * kTicksPerNs;
        m.perRequestSetup = 25 * kTicksPerUs;
        m.sessionEstablishTicks = 2500 * kTicksPerMs;
        m.computeOverhead = 1.03;
        break;
    }
    return m;
}

TcbDescriptor
tcbFor(Kind kind)
{
    TcbDescriptor t;
    switch (kind) {
      case Kind::CcaiSc:
        t.trustAnchor = "PCIe-SC FPGA + HRoT blade";
        t.interposer = true;
        t.packetFilter = true;
        t.perTlpCrypto = true;
        t.legacyDeviceOk = true; // the point of the paper
        t.stackUnmodified = true;
        t.appUnmodified = true;
        t.addedTcbKloc = 21.0;
        break;
      case Kind::H100Cc:
        t.trustAnchor = "GPU on-die RoT + CPU TEE";
        t.deviceCrypto = true;
        t.legacyDeviceOk = false; // needs a CC-capable GPU
        t.stackUnmodified = false; // CC driver/firmware mode
        t.appUnmodified = true;
        t.addedTcbKloc = 120.0; // GPU firmware + CC driver stack
        break;
      case Kind::Acai:
        t.trustAnchor = "CCA RMM + device attestation";
        t.teeExtension = true;
        t.legacyDeviceOk = false; // device must join the realm
        t.stackUnmodified = false; // RMM/hypervisor changes
        t.appUnmodified = true;
        t.addedTcbKloc = 45.0; // RMM extensions + monitor
        break;
    }
    return t;
}

namespace
{

Tick
throughputDelay(std::uint64_t bytes, double bytesPerSec)
{
    if (bytesPerSec <= 0.0)
        return 0;
    return secondsToTicks(static_cast<double>(bytes) / bytesPerSec);
}

} // namespace

Tick
CostModel::hostSealDelay(std::uint64_t bytes) const
{
    return throughputDelay(bytes, hostSealBytesPerSec);
}

Tick
CostModel::hostOpenDelay(std::uint64_t bytes) const
{
    return throughputDelay(bytes, hostOpenBytesPerSec);
}

Tick
CostModel::deviceCryptoDelay(std::uint64_t bytes) const
{
    return throughputDelay(bytes, deviceCryptoBytesPerSec);
}

} // namespace ccai::backend
