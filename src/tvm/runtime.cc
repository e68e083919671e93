#include "runtime.hh"

#include <algorithm>

#include "backend/protection_backend.hh"
#include "common/logging.hh"
#include "pcie/memory_map.hh"
#include "xpu/xpu_device.hh"

namespace ccai::tvm
{

namespace mm = pcie::memmap;

Runtime::Runtime(sim::System &sys, std::string name, Tvm &tvm,
                 XpuDriver &driver, RuntimeMode mode, Adaptor *adaptor)
    : sim::SimObject(sys, std::move(name)), tvm_(tvm), driver_(driver),
      mode_(mode), adaptor_(adaptor)
{
    if (mode_ == RuntimeMode::Secure && !adaptor_)
        fatal("Runtime: secure mode requires an Adaptor");
}

std::uint32_t
Runtime::secureBurstBytes() const
{
    if (mode_ != RuntimeMode::Secure || !adaptor_)
        return 0;
    std::uint64_t chunk = adaptor_->config().chunkBytes;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(chunk, xpu::XpuDevice::kDmaBurst));
}

std::uint64_t
Runtime::maxPieceBytes() const
{
    if (mode_ != RuntimeMode::Secure)
        return kMaxPieceBytes;
    const TenantWindows &win = adaptor_->windows();
    return std::min({kMaxPieceBytes, win.h2d.size, win.d2h.size});
}

Addr
Runtime::allocStaging(std::uint64_t length)
{
    // Pinned staging area inside the TVM-visible DRAM used by the
    // vanilla direct-DMA path.
    if (stagingCursor_ + length > mm::kTvmPrivate.size)
        stagingCursor_ = 0;
    Addr addr = mm::kTvmPrivate.base + stagingCursor_;
    stagingCursor_ += length;
    return addr;
}

void
Runtime::memcpyH2D(Addr devAddr, std::optional<Bytes> data,
                   std::uint64_t length, DoneCb done, TransferKind kind)
{
    if (data && data->size() != length)
        fatal("ccrt: memcpyH2D data/length mismatch");
    // One owner for the whole payload: every piece reads its slice in
    // place, so no piece is copied out of the caller's buffer.
    std::shared_ptr<const Bytes> payload;
    if (data)
        payload = std::make_shared<const Bytes>(std::move(*data));
    h2dPiece(devAddr, std::move(payload), 0, length, kind,
             std::move(done));
}

void
Runtime::h2dPiece(Addr devAddr, std::shared_ptr<const Bytes> data,
                  std::uint64_t offset, std::uint64_t total,
                  TransferKind kind, DoneCb done)
{
    if (offset >= total) {
        done();
        return;
    }
    std::uint64_t length = std::min(total - offset, maxPieceBytes());
    auto next = [this, devAddr, data, offset, length, total, kind,
                 done = std::move(done)]() mutable {
        h2dPiece(devAddr, std::move(data), offset + length, total,
                 kind, std::move(done));
    };
    memcpyH2DPiece(devAddr + offset, std::move(data), offset, length,
                   std::move(next), kind);
}

void
Runtime::memcpyH2DPiece(Addr devAddr, std::shared_ptr<const Bytes> data,
                        std::uint64_t offset, std::uint64_t length,
                        DoneCb done, TransferKind kind)
{
    auto submit_dma = [this, devAddr, length,
                       synthetic = data == nullptr,
                       done = std::move(done)](Addr hostAddr) {
        xpu::XpuCommand cmd;
        cmd.type = xpu::XpuCmdType::DmaFromHost;
        cmd.hostAddr = hostAddr;
        cmd.devAddr = devAddr;
        cmd.length = length;
        cmd.synthetic = synthetic;
        cmd.burstBytes = secureBurstBytes();
        driver_.submitCommand(cmd);
        driver_.fence(std::move(done));
    };

    if (mode_ == RuntimeMode::Secure) {
        adaptor_->prepareH2d(std::move(data), offset, length,
                             std::move(submit_dma),
                             kind == TransferKind::KvSwap);
        return;
    }

    // Vanilla: stage plaintext in pinned memory, device pulls it.
    // KV-swap traffic lives in pinned buffers permanently, so it
    // skips the host-side copy.
    Addr staging = allocStaging(length);
    if (data)
        tvm_.memory().write(staging, data->data() + offset, length);
    Tick copy = kind == TransferKind::KvSwap
                    ? 0
                    : tvm_.memcpyDelay(length);
    if (cost_) {
        // Rival cost model: the CPU seals the payload into the
        // encrypted bounce buffer before the device may pull it.
        // KV swaps get no exemption — without an on-path crypto
        // engine there is no line-rate path to ride.
        copy += cost_->hostSealDelay(length);
        copy += cost_->perTransferSetup;
    }
    eventq().scheduleIn(copy,
                        [submit_dma = std::move(submit_dma), staging] {
                            submit_dma(staging);
                        });
}

void
Runtime::memcpyD2H(Addr devAddr, std::uint64_t length, bool synthetic,
                   DataCb done, TransferKind kind)
{
    auto acc = std::make_shared<Bytes>();
    d2hPiece(devAddr, 0, length, synthetic, kind, std::move(acc),
             std::move(done));
}

void
Runtime::d2hPiece(Addr devAddr, std::uint64_t offset,
                  std::uint64_t total, bool synthetic,
                  TransferKind kind, std::shared_ptr<Bytes> acc,
                  DataCb done)
{
    if (offset >= total) {
        done(std::move(*acc));
        return;
    }
    std::uint64_t length = std::min(total - offset, maxPieceBytes());
    memcpyD2HPiece(
        devAddr + offset, length, synthetic,
        [this, devAddr, offset, length, total, synthetic, kind, acc,
         done = std::move(done)](Bytes piece) mutable {
            // The first piece becomes the result; later ones append.
            if (acc->empty())
                *acc = std::move(piece);
            else
                acc->insert(acc->end(), piece.begin(), piece.end());
            d2hPiece(devAddr, offset + length, total, synthetic, kind,
                     std::move(acc), std::move(done));
        },
        kind);
}

void
Runtime::memcpyD2HPiece(Addr devAddr, std::uint64_t length,
                        bool synthetic, DataCb done, TransferKind kind)
{
    if (mode_ == RuntimeMode::Secure) {
        Addr bounce = adaptor_->allocD2hBounce(length);
        xpu::XpuCommand cmd;
        cmd.type = xpu::XpuCmdType::DmaToHost;
        cmd.hostAddr = bounce;
        cmd.devAddr = devAddr;
        cmd.length = length;
        cmd.synthetic = synthetic;
        cmd.burstBytes = secureBurstBytes();
        driver_.submitCommand(cmd);
        driver_.fence([this, bounce, length, synthetic, kind,
                       done = std::move(done)]() {
            adaptor_->collectD2h(bounce, length, synthetic,
                                 std::move(done),
                                 kind == TransferKind::KvSwap);
        });
        return;
    }

    Addr staging = allocStaging(length);
    xpu::XpuCommand cmd;
    cmd.type = xpu::XpuCmdType::DmaToHost;
    cmd.hostAddr = staging;
    cmd.devAddr = devAddr;
    cmd.length = length;
    cmd.synthetic = synthetic;
    driver_.submitCommand(cmd);
    driver_.fence([this, staging, length, synthetic, kind,
                   done = std::move(done)]() {
        Tick copy = kind == TransferKind::KvSwap
                        ? 0
                        : tvm_.memcpyDelay(length);
        if (cost_) {
            copy += cost_->hostOpenDelay(length);
            copy += cost_->perTransferSetup;
        }
        eventq().scheduleIn(copy, [this, staging, length, synthetic,
                                   done = std::move(done)]() {
            Bytes out;
            if (!synthetic)
                out = tvm_.memory().read(staging, length);
            done(std::move(out));
        });
    });
}

void
Runtime::beginRequest(DoneCb done)
{
    if (mode_ == RuntimeMode::Secure) {
        adaptor_->refreshPolicy(std::move(done));
        return;
    }
    // Rival backends charge their per-request setup (command-buffer
    // authentication, granule delegation, ...) here.
    Tick setup = cost_ ? cost_->perRequestSetup : 0;
    eventq().scheduleIn(setup, std::move(done));
}

void
Runtime::launchKernel(Tick duration)
{
    xpu::XpuCommand cmd;
    cmd.type = xpu::XpuCmdType::LaunchKernel;
    cmd.duration = duration;
    if (cost_) {
        // Confidential-compute mode costs the rivals a fixed factor
        // on kernel time (encrypted HBM / stage-2 translation).
        cmd.duration = static_cast<Tick>(
            static_cast<double>(cmd.duration) * cost_->computeOverhead);
    }
    driver_.submitCommand(cmd);
}

void
Runtime::synchronize(DoneCb done)
{
    driver_.fence(std::move(done));
}

} // namespace ccai::tvm
