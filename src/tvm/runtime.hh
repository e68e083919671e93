/**
 * @file
 * ccrt — the user-level runtime API xPU applications program
 * against (the CUDA-like layer). Applications written against ccrt
 * run unchanged on a vanilla system and under ccAI: user
 * transparency is the point of the paper's design, and this API is
 * where the repo demonstrates it. In secure mode the runtime routes
 * data movement through the Adaptor's bounce-buffer path; in vanilla
 * mode the device DMAs application memory directly.
 */

#ifndef CCAI_TVM_RUNTIME_HH
#define CCAI_TVM_RUNTIME_HH

#include <optional>

#include "tvm/driver.hh"

namespace ccai::backend
{
struct CostModel;
} // namespace ccai::backend

namespace ccai::tvm
{

/** Execution mode of the runtime. */
enum class RuntimeMode
{
    Vanilla, ///< no PCIe-SC in the path, plaintext DMA
    Secure,  ///< ccAI: Adaptor + PCIe-SC protection
};

/** What kind of payload a transfer carries. */
enum class TransferKind
{
    /** User data/results: Adaptor en/decrypts on the TVM side. */
    Sensitive,
    /**
     * KV-cache swap traffic: encrypted/decrypted by the PCIe-SC at
     * line rate and never visible to the TVM in plaintext; the
     * Adaptor only tracks chunk records.
     */
    KvSwap,
};

/**
 * The runtime object an application binds to one device.
 */
class Runtime : public sim::SimObject
{
  public:
    using DoneCb = std::function<void()>;
    using DataCb = std::function<void(Bytes)>;

    Runtime(sim::System &sys, std::string name, Tvm &tvm,
            XpuDriver &driver, RuntimeMode mode,
            Adaptor *adaptor = nullptr);

    RuntimeMode mode() const { return mode_; }

    /**
     * Charge a rival design's cost model (H100-CC / ACAI) on a
     * Vanilla-mode runtime: its host seal/open rates, per-transfer
     * and per-request setup, and compute-overhead factor on top of
     * the plain data path. nullptr (the default) charges nothing;
     * a ccAI platform's costs come from the simulated PCIe-SC.
     */
    void setCostModel(const backend::CostModel *cost) { cost_ = cost; }

    /**
     * Copy host data to device memory (synchronous semantics: @p
     * done fires once the device holds the data). Passing
     * std::nullopt models a bulk transfer of @p length bytes with no
     * materialized payload.
     */
    void memcpyH2D(Addr devAddr, std::optional<Bytes> data,
                   std::uint64_t length, DoneCb done,
                   TransferKind kind = TransferKind::Sensitive);

    /**
     * Copy device memory back to the host. For synthetic transfers
     * the callback receives an empty buffer.
     */
    void memcpyD2H(Addr devAddr, std::uint64_t length, bool synthetic,
                   DataCb done,
                   TransferKind kind = TransferKind::Sensitive);

    /**
     * Per-request setup: in secure mode the Adaptor re-installs the
     * packet policy covering this request's bounce windows; in
     * vanilla mode this completes immediately.
     */
    void beginRequest(DoneCb done);

    /** Enqueue a compute kernel of the given modelled duration. */
    void launchKernel(Tick duration);

    /** Block until all queued work retired. */
    void synchronize(DoneCb done);

  private:
    Addr allocStaging(std::uint64_t length);
    /**
     * DMA burst override for secure transfers: device bursts are
     * clamped to the Adaptor's chunk size so every burst maps onto
     * exactly one A2 chunk record at the PCIe-SC (0 in vanilla mode
     * leaves the device default).
     */
    std::uint32_t secureBurstBytes() const;
    /**
     * Largest piece one transfer is split into: kMaxPieceBytes,
     * and in secure mode no more than the tenant's H2D and D2H
     * bounce windows, so a piece never spills into a neighbour's.
     */
    std::uint64_t maxPieceBytes() const;
    /** Transfer [offset, total) of @p data (nullptr: synthetic) one
     * piece after another. */
    void h2dPiece(Addr devAddr, std::shared_ptr<const Bytes> data,
                  std::uint64_t offset, std::uint64_t total,
                  TransferKind kind, DoneCb done);
    /** One piece: bytes [offset, offset + length) of @p data, to
     * @p devAddr. */
    void memcpyH2DPiece(Addr devAddr, std::shared_ptr<const Bytes> data,
                        std::uint64_t offset, std::uint64_t length,
                        DoneCb done, TransferKind kind);
    void memcpyD2HPiece(Addr devAddr, std::uint64_t length,
                        bool synthetic, DataCb done,
                        TransferKind kind);
    void d2hPiece(Addr devAddr, std::uint64_t offset,
                  std::uint64_t total, bool synthetic,
                  TransferKind kind, std::shared_ptr<Bytes> acc,
                  DataCb done);

    /** Transfers larger than this are split into sequential
     * pieces. */
    static constexpr std::uint64_t kMaxPieceBytes = 256 * kMiB;

    Tvm &tvm_;
    XpuDriver &driver_;
    RuntimeMode mode_;
    Adaptor *adaptor_;
    const backend::CostModel *cost_ = nullptr;
    Addr stagingCursor_ = 0;
};

} // namespace ccai::tvm

#endif // CCAI_TVM_RUNTIME_HH
