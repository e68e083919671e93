/**
 * @file
 * Platform assembly: builds a complete simulated machine — either
 * the ccAI-protected topology (root complex <-> switch <-> PCIe-SC
 * <-> xPU, plus Adaptor and trust infrastructure) or the vanilla
 * baseline (same machine without the PCIe-SC and Adaptor). This is
 * the top-level entry point of the library: examples and benchmarks
 * construct a Platform, establish trust, and run workloads through
 * the ccrt runtime.
 */

#ifndef CCAI_CCAI_PLATFORM_HH
#define CCAI_CCAI_PLATFORM_HH

#include <memory>
#include <string>

#include "attack/bus_tap.hh"
#include "backend/protection_backend.hh"
#include "ccai/recovery.hh"
#include "llm/inference.hh"
#include "pcie/fault_injector.hh"
#include "pcie/transport.hh"
#include "sc/pcie_sc.hh"
#include "trust/attestation.hh"
#include "trust/sealing.hh"
#include "trust/secure_boot.hh"
#include "tvm/runtime.hh"
#include "xpu/xpu_device.hh"

namespace ccai
{

/** How the machine is built. */
struct PlatformConfig
{
    /** true: protected topology; false: vanilla baseline. */
    bool secure = true;
    /**
     * Which protection design a secure platform models. CcaiSc is
     * the paper's interposed PCIe-SC, simulated packet by packet.
     * H100Cc and Acai are cost-modelled rivals: they build the
     * vanilla topology (no interposer) and charge each transfer,
     * request and kernel launch per backend::costModelFor(). Ignored
     * when secure is false.
     */
    backend::Kind protection = backend::Kind::CcaiSc;
    xpu::XpuSpec xpuSpec = xpu::XpuSpec::a100();
    /** Host-side PCIe (root complex <-> switch <-> SC). */
    pcie::LinkConfig hostLink;
    /** PCIe-SC's internal bus to the xPU. */
    pcie::LinkConfig internalLink;
    sc::PcieScConfig scConfig;
    tvm::AdaptorConfig adaptorConfig;
    tvm::AdaptorTiming adaptorTiming;
    tvm::TvmTiming tvmTiming;
    /**
     * Fallback RNG seed; overridden by --seed / CCAI_SEED (see
     * sim::resolveSeed). Platform::seed() reports the effective value.
     */
    std::uint64_t seed = 0x5EED;
    /**
     * Secure-path retry policy, shared by the root complex, the
     * PCIe-SC and every Adaptor. Defaults to enabled: the full
     * topology always has both ARQ endpoints alive, so running the
     * ack machinery even on a lossless fabric keeps the protected
     * path identical whether or not faults are injected.
     */
    pcie::RetryConfig retry = pcie::RetryConfig::enabledDefaults();
    /**
     * Fault schedule applied at build time to both directions of the
     * host<->PCIe-SC segment (the exposed segment in the threat
     * model). setHostLinkFaults() can change it later.
     */
    pcie::FaultConfig hostLinkFaults; ///< all-zero rates: disabled
    /**
     * Splice a physical bus attacker (attack::BusTap) into the
     * host-side PCIe segment between the root switch and the
     * PCIe-SC — the segment the paper's threat model exposes to
     * snooping/tampering. Secure platforms only.
     */
    bool attachBusTap = false;
    /**
     * Tenant slots (paper §9 multi-user support): the bounce and
     * metadata regions are partitioned into this many per-tenant
     * windows. Slot 0 is the owner TVM; additional tenants join via
     * Platform::addTenant().
     */
    std::uint32_t maxTenants = 1;
    /**
     * Watchdog / crash-recovery tuning. Secure platforms build a
     * RecoveryManager wired to the PCIe-SC heartbeat, the xPU status
     * probe and the HRoT keep-alive; vanilla platforms have no
     * protected components to recover.
     */
    RecoveryConfig recovery;

    /**
     * Construction-time sanity check, run by the Platform
     * constructor (which fatals on the returned message). Returns an
     * empty string when the config is usable, otherwise an
     * actionable description of the first problem found.
     */
    std::string validationError() const;
};

/** Outcome of Platform::establishTrust(). */
struct TrustReport
{
    bool secureBootOk = false;
    bool attestationOk = false;
    bool sealed = false;
    std::string failure;

    bool
    ok() const
    {
        return secureBootOk && attestationOk && sealed;
    }
};

/**
 * The assembled machine.
 */
class Platform
{
  public:
    explicit Platform(const PlatformConfig &config = {});
    ~Platform();

    sim::System &system() { return sys_; }
    const PlatformConfig &config() const { return config_; }

    tvm::Tvm &tvm() { return *tvm_; }
    tvm::Runtime &runtime() { return *runtime_; }
    tvm::XpuDriver &driver() { return *driver_; }
    xpu::XpuDevice &xpu() { return *xpu_; }
    pcie::RootComplex &rootComplex() { return *rc_; }
    pcie::HostMemory &hostMemory() { return mem_; }
    pcie::Switch &rootSwitch() { return *switch_; }

    /**
     * The protection backend (nullptr on a vanilla platform). For
     * Kind::CcaiSc this fronts the simulated PCIe-SC; for the
     * rivals it carries their cost model and session state.
     */
    backend::ProtectionBackend *protection() { return backend_.get(); }

    /** nullptr unless this is a secure ccai-backend platform. */
    sc::PcieSc *pcieSc() { return sc_; }
    tvm::Adaptor *adaptor() { return adaptor_.get(); }
    trust::HrotBlade *blade() { return blade_.get(); }
    trust::HrotBlade *cpuHrot() { return cpuHrot_.get(); }
    /** nullptr unless attachBusTap was set. */
    attack::BusTap *busTap() { return busTap_.get(); }
    trust::ChassisSealing *sealing() { return sealing_.get(); }
    trust::RootCa *rootCa() { return ca_.get(); }

    /**
     * Run the full trust-establishment sequence (§6): secure boot of
     * the PCIe-SC from encrypted flash, measurement of the TVM
     * stack, chassis sealing, remote attestation by a user verifier,
     * TVM<->PCIe-SC key negotiation, and policy installation. On a
     * vanilla platform this is a no-op that reports success.
     */
    TrustReport establishTrust();

    /**
     * A co-resident tenant with its own TVM, Adaptor, driver and
     * runtime, isolated from the owner by the PCIe-SC's per-tenant
     * sessions (paper §9).
     */
    struct Tenant
    {
        pcie::Bdf bdf;
        std::unique_ptr<tvm::Tvm> tvm;
        std::unique_ptr<tvm::Adaptor> adaptor;
        std::unique_ptr<tvm::XpuDriver> driver;
        std::unique_ptr<tvm::Runtime> runtime;
    };

    /**
     * Attach an additional tenant after establishTrust(): negotiates
     * its own session keys with the PCIe-SC, carves its bounce and
     * metadata windows, and extends the packet policy with its
     * requester ID. Requires a secure platform with a free slot.
     */
    Tenant &addTenant(pcie::Bdf bdf);

    const std::vector<std::unique_ptr<Tenant>> &tenants() const
    {
        return tenants_;
    }

    /**
     * Admission-checked addTenant: returns nullptr instead of
     * attaching when @p bdf belongs to a quarantined tenant (the
     * crash-recovery policy rejects re-admission). addTenant itself
     * keeps its fatal semantics for programming errors.
     */
    Tenant *tryAddTenant(pcie::Bdf bdf);

    /** Crash-recovery subsystem; nullptr on a vanilla platform. */
    RecoveryManager *recovery() { return recovery_.get(); }

    /**
     * Re-run remote attestation and session-key negotiation for one
     * tenant slot (0 = owner): a fresh challenge/quote round against
     * the blade's current PCRs and AK, a fresh DHKE, new workload
     * keys on both ends (the old epoch's keys are destroyed), policy
     * re-install and hw_init. This is the RecoveryManager's
     * re-attestation hook, public so tests can drive it directly.
     */
    bool reattestTenant(std::uint32_t slot);

    /** Drive the event loop until it drains. */
    void run() { sys_.run(); }

    /** The link feeding the switch (bandwidth stress tests). */
    void setHostLinkConfig(const pcie::LinkConfig &config);

    /**
     * Install a deterministic fault schedule on both directions of
     * the host<->PCIe-SC segment (through the BusTap when one is
     * spliced in). Each constituent link derives an independent but
     * per-seed reproducible stream from (config.seed, link name).
     */
    void setHostLinkFaults(const pcie::FaultConfig &faults);
    /** Make the host<->PCIe-SC segment lossless again. */
    void clearHostLinkFaults();

    /** The effective RNG seed after --seed / CCAI_SEED overrides. */
    std::uint64_t seed() const { return effectiveSeed_; }

    // ---- Observability plane ----

    /** Directory of every component's metric group. */
    obs::MetricsRegistry &metrics() { return sys_.metrics(); }
    const obs::MetricsRegistry &metrics() const
    {
        return sys_.metrics();
    }

    /** Span tracer (compiled in, off by default). */
    obs::Tracer &tracer() { return sys_.tracer(); }
    void setTracingEnabled(bool on) { sys_.tracer().setEnabled(on); }

    /**
     * Whole-machine metrics snapshot as pretty-printed JSON:
     * schema_version / seed / sim_now_ticks, every registered metric
     * group keyed by prefix, per-tenant traffic rollups, and — when
     * @p includeWall is set — a "wall" section with the shared crypto
     * worker pool's wall-clock stats. The sim-time sections are
     * deterministic (same config + seed => byte-identical); the wall
     * section varies run to run, so determinism tests pass false.
     */
    std::string exportMetricsJson(bool includeWall = true);

    /**
     * Write the recorded span trace as Chrome trace_event JSON,
     * loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
     * Returns false when @p path cannot be written.
     */
    bool exportTrace(const std::string &path) const;

  private:
    void buildTopology();
    pcie::AddrRange tenantSlice(pcie::AddrRange region,
                                std::uint32_t slot) const;
    void installPolicyForAllTenants();
    void installRecoveryHooks();
    /** First non-quarantined Adaptor, the watchdog's probe vehicle
     * (quarantined requester IDs are filtered by the SC and could
     * never see a probe reply). nullptr when all slots are gone. */
    tvm::Adaptor *probeAdaptor();
    tvm::Adaptor &adaptorFor(std::uint32_t slot);
    tvm::Runtime &runtimeFor(std::uint32_t slot);
    pcie::Bdf bdfFor(std::uint32_t slot) const;

    PlatformConfig config_;
    std::uint64_t effectiveSeed_;
    sim::System sys_;
    sim::Rng rng_;
    pcie::HostMemory mem_;

    std::unique_ptr<pcie::RootComplex> rc_;
    std::unique_ptr<tvm::Tvm> tvm_;
    std::unique_ptr<pcie::Switch> switch_;
    /** Owns the PCIe-SC on the ccai backend (see sc_ below). */
    std::unique_ptr<backend::ProtectionBackend> backend_;
    /** Borrowed from backend_; nullptr unless Kind::CcaiSc. */
    sc::PcieSc *sc_ = nullptr;
    std::unique_ptr<xpu::XpuDevice> xpu_;
    std::unique_ptr<pcie::DuplexLink> rcSwitchLink_;
    std::unique_ptr<pcie::DuplexLink> switchScLink_;
    std::unique_ptr<pcie::DuplexLink> scXpuLink_;
    std::unique_ptr<pcie::DuplexLink> switchXpuLink_; // vanilla
    std::unique_ptr<attack::BusTap> busTap_;
    std::unique_ptr<pcie::DuplexLink> tapScLink_;

    std::unique_ptr<tvm::Adaptor> adaptor_;
    std::unique_ptr<tvm::XpuDriver> driver_;
    std::unique_ptr<tvm::Runtime> runtime_;

    std::unique_ptr<trust::RootCa> ca_;
    std::unique_ptr<trust::HrotBlade> cpuHrot_;
    std::unique_ptr<trust::HrotBlade> blade_;
    std::unique_ptr<trust::ChassisSealing> sealing_;
    std::unique_ptr<RecoveryManager> recovery_;

    std::vector<std::unique_ptr<Tenant>> tenants_;
};

} // namespace ccai

#endif // CCAI_CCAI_PLATFORM_HH
