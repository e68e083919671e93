#include "platform.hh"

#include <fstream>
#include <sstream>

#include "common/buffer_pool.hh"
#include "common/logging.hh"
#include "crypto/worker_pool.hh"
#include "obs/json.hh"
#include "sc/ccai_sc_backend.hh"
#include "sim/event_queue.hh"
#include "sim/metrics_snapshot.hh"
#include "sim/rng.hh"

namespace ccai
{

namespace mm = pcie::memmap;
using pcie::wellknown::kPcieSc;
using pcie::wellknown::kTvm;
using pcie::wellknown::kXpu;

std::string
PlatformConfig::validationError() const
{
    std::ostringstream os;
    if (scConfig.dataEngineThreads < 1) {
        os << "scConfig.dataEngineThreads must be >= 1 (got "
           << scConfig.dataEngineThreads
           << "); use 1 for the serial data plane";
        return os.str();
    }
    if (scConfig.metaBatchSize == 0)
        return "scConfig.metaBatchSize must be >= 1: the metadata "
               "completion ring flushes in batches of this size";
    if (adaptorConfig.cryptoThreads < 1) {
        os << "adaptorConfig.cryptoThreads must be >= 1 (got "
           << adaptorConfig.cryptoThreads
           << "); use 1 to model a single-threaded CPU data plane";
        return os.str();
    }
    if (adaptorConfig.chunkBytes == 0)
        return "adaptorConfig.chunkBytes must be > 0: it is the "
               "bounce-buffer chunk granularity";
    if (adaptorConfig.subtaskBytes == 0)
        return "adaptorConfig.subtaskBytes must be > 0: it is the "
               "subtask granularity of the non-batched design";
    if (adaptorConfig.d2hSlotBytes == 0)
        return "adaptorConfig.d2hSlotBytes must be > 0: the device "
               "stages every D2H collection through this slot";
    if (maxTenants < 1)
        return "maxTenants must be >= 1: slot 0 is the owner TVM";
    if (secure && protection != backend::Kind::CcaiSc) {
        const char *alt = backend::kindName(protection);
        if (attachBusTap) {
            os << "attachBusTap requires protection = ccai: the bus "
                  "tap splices into the host<->PCIe-SC segment, "
                  "which the "
               << alt << " backend does not build";
            return os.str();
        }
        if (maxTenants > 1) {
            os << "maxTenants > 1 requires protection = ccai: tenant "
                  "slots ride on the PCIe-SC's per-tenant sessions, "
                  "which the "
               << alt << " backend does not model (got maxTenants="
               << maxTenants << ")";
            return os.str();
        }
    }
    return {};
}

Platform::Platform(const PlatformConfig &config)
    : config_(config), effectiveSeed_(sim::resolveSeed(config.seed)),
      rng_(effectiveSeed_)
{
    if (std::string err = config_.validationError(); !err.empty())
        fatal("PlatformConfig: %s", err.c_str());
    // A fault schedule left on the default seed follows the platform
    // seed, so a CI log line with the seed replays the failing run;
    // an explicitly-seeded schedule is honoured as-is.
    if (config_.hostLinkFaults.seed == pcie::FaultConfig{}.seed)
        config_.hostLinkFaults.seed = effectiveSeed_;
    // Pin the hot DMA windows as contiguous arenas (the simulated
    // analogue of pinned, IOMMU-mapped pages): the data plane seals
    // and opens payloads in place in these windows and the Adaptor
    // reaps the metadata completion ring straight from host memory,
    // all with zero staging copies. Backing pages are lazily
    // faulted, so untouched window space costs nothing.
    mem_.pinRange(mm::kBounceH2d.base, mm::kBounceH2d.size);
    mem_.pinRange(mm::kBounceD2h.base, mm::kBounceD2h.size);
    mem_.pinRange(mm::kMetadataBuffer.base, mm::kMetadataBuffer.size);
    buildTopology();
}

Platform::~Platform() = default;

void
Platform::buildTopology()
{
    rc_ = std::make_unique<pcie::RootComplex>(sys_, "rc", mem_);
    rc_->setRetryConfig(config_.retry);
    tvm_ = std::make_unique<tvm::Tvm>(sys_, "tvm", *rc_, kTvm,
                                      config_.tvmTiming);
    switch_ = std::make_unique<pcie::Switch>(sys_, "root_switch");
    xpu_ = std::make_unique<xpu::XpuDevice>(sys_, "xpu",
                                            config_.xpuSpec, kXpu);

    // Root complex <-> switch.
    rcSwitchLink_ = std::make_unique<pcie::DuplexLink>(
        sys_, "rc_sw", rc_.get(), switch_.get(), config_.hostLink);
    rc_->connectDownstream(&rcSwitchLink_->downstream());
    int up_port = switch_->addPort(&rcSwitchLink_->upstream());
    switch_->setDefaultPort(up_port);
    switch_->mapAddressRange(mm::kHostDramLow, up_port);
    switch_->mapAddressRange(mm::kHostDramHigh, up_port);
    switch_->mapRoutingId(kTvm, up_port);
    switch_->mapRoutingId(pcie::wellknown::kRootComplex, up_port);

    if (config_.secure)
        backend_ = backend::makeBackend(config_.protection);

    if (config_.secure && config_.protection == backend::Kind::CcaiSc) {
        sc::PcieScConfig sc_cfg = config_.scConfig;
        sc_cfg.retry = config_.retry;
        sc_ = static_cast<backend::CcaiScBackend &>(*backend_)
                  .buildInterposer(sys_, "pcie_sc", sc_cfg);

        // Switch <-> [optional bus attacker] <-> PCIe-SC.
        pcie::PcieNode *sc_upstream_neighbor = switch_.get();
        if (config_.attachBusTap) {
            busTap_ = std::make_unique<attack::BusTap>(sys_,
                                                       "bus_tap");
            switchScLink_ = std::make_unique<pcie::DuplexLink>(
                sys_, "sw_tap", switch_.get(), busTap_.get(),
                config_.hostLink);
            tapScLink_ = std::make_unique<pcie::DuplexLink>(
                sys_, "tap_sc", busTap_.get(), sc_,
                config_.hostLink);
            busTap_->connect(&switchScLink_->upstream(), switch_.get(),
                             &tapScLink_->downstream(), sc_);
            sc_->connectUpstream(&tapScLink_->upstream(),
                                 busTap_.get());
            sc_upstream_neighbor = busTap_.get();
        } else {
            switchScLink_ = std::make_unique<pcie::DuplexLink>(
                sys_, "sw_sc", switch_.get(), sc_,
                config_.hostLink);
            sc_->connectUpstream(&switchScLink_->upstream(),
                                 switch_.get());
        }
        (void)sc_upstream_neighbor;

        int dev_port = switch_->addPort(&switchScLink_->downstream());
        switch_->mapAddressRange(mm::kScMmio, dev_port);
        switch_->mapAddressRange(mm::kScRuleTable, dev_port);
        switch_->mapAddressRange(mm::kXpuMmio, dev_port);
        switch_->mapAddressRange(mm::kXpuVram, dev_port);
        switch_->mapRoutingId(kXpu, dev_port);
        switch_->mapRoutingId(kPcieSc, dev_port);

        // PCIe-SC <-> xPU (internal PCIe inside the chassis).
        scXpuLink_ = std::make_unique<pcie::DuplexLink>(
            sys_, "sc_xpu", sc_, xpu_.get(),
            config_.internalLink);
        sc_->connectDownstream(&scXpuLink_->downstream(), xpu_.get());
        xpu_->connectUpstream(&scXpuLink_->upstream());

        // The owner TVM gets tenant slot 0 of the bounce/metadata
        // partitions (the whole regions when maxTenants == 1).
        tvm::AdaptorConfig owner_cfg = config_.adaptorConfig;
        owner_cfg.retry = config_.retry;
        owner_cfg.h2dWindow = tenantSlice(mm::kBounceH2d, 0);
        owner_cfg.d2hWindow = tenantSlice(mm::kBounceD2h, 0);
        owner_cfg.metaWindow = tenantSlice(mm::kMetadataBuffer, 0);
        adaptor_ = std::make_unique<tvm::Adaptor>(
            sys_, "adaptor", *tvm_, owner_cfg,
            config_.adaptorTiming);
        driver_ = std::make_unique<tvm::XpuDriver>(
            sys_, "driver", *tvm_, adaptor_.get());
        runtime_ = std::make_unique<tvm::Runtime>(
            sys_, "ccrt", *tvm_, *driver_, tvm::RuntimeMode::Secure,
            adaptor_.get());

        // The environment guard can cold-reset the device directly
        // (FPGA-driven) or ask the Adaptor for a software reset.
        sc_->envGuard().setColdResetHook(
            [this] { xpu_->coldReset(); });
        sc_->envGuard().setSoftResetHook([this] {
            adaptor_->writeSigned(mm::kXpuMmio.base + mm::xpureg::kReset,
                                  Bytes{1, 0, 0, 0, 0, 0, 0, 0});
        });
        // Pin the device page-table root inside its own VRAM.
        sc_->envGuard().addConstraint(
            {mm::xpureg::kPageTableBase, mm::kXpuVram.base,
             mm::kXpuVram.base + config_.xpuSpec.vramBytes});

        // Crash-recovery subsystem. Its hooks need the trust
        // infrastructure (blade, CA), so they are installed when
        // establishTrust() succeeds.
        recovery_ = std::make_unique<RecoveryManager>(
            sys_, "recovery", config_.recovery);

        tvm_->configureIommu(true);
    } else {
        // Vanilla: switch connects straight to the xPU. The
        // cost-modelled rival backends build the same topology —
        // neither H100-CC nor ACAI puts hardware on the bus — and
        // charge their overheads through the runtime/device hooks
        // installed below.
        switchXpuLink_ = std::make_unique<pcie::DuplexLink>(
            sys_, "sw_xpu", switch_.get(), xpu_.get(),
            config_.hostLink);
        int dev_port = switch_->addPort(&switchXpuLink_->downstream());
        switch_->mapAddressRange(mm::kXpuMmio, dev_port);
        switch_->mapAddressRange(mm::kXpuVram, dev_port);
        switch_->mapRoutingId(kXpu, dev_port);
        xpu_->connectUpstream(&switchXpuLink_->upstream());

        driver_ = std::make_unique<tvm::XpuDriver>(sys_, "driver",
                                                   *tvm_, nullptr);
        runtime_ = std::make_unique<tvm::Runtime>(
            sys_, "ccrt", *tvm_, *driver_, tvm::RuntimeMode::Vanilla,
            nullptr);
        if (backend_) {
            runtime_->setProtection(backend_.get());
            xpu_->setProtection(backend_.get());
        }
        tvm_->configureIommu(false);
    }

    if (config_.hostLinkFaults.anyEnabled())
        setHostLinkFaults(config_.hostLinkFaults);
}

void
Platform::setHostLinkConfig(const pcie::LinkConfig &config)
{
    config_.hostLink = config;
    rcSwitchLink_->setConfig(config);
    if (switchScLink_)
        switchScLink_->setConfig(config);
    if (switchXpuLink_)
        switchXpuLink_->setConfig(config);
}

void
Platform::setHostLinkFaults(const pcie::FaultConfig &faults)
{
    config_.hostLinkFaults = faults;
    if (!switchScLink_) {
        // Vanilla platform: no protected segment to make lossy (the
        // unprotected path has no ARQ and would simply lose data).
        warn("setHostLinkFaults: no host<->SC segment on this "
             "platform; ignoring");
        return;
    }
    switchScLink_->downstream().setFaultConfig(faults);
    switchScLink_->upstream().setFaultConfig(faults);
    if (tapScLink_) {
        tapScLink_->downstream().setFaultConfig(faults);
        tapScLink_->upstream().setFaultConfig(faults);
    }
}

void
Platform::clearHostLinkFaults()
{
    config_.hostLinkFaults = pcie::FaultConfig{};
    if (!switchScLink_)
        return;
    switchScLink_->downstream().clearFaults();
    switchScLink_->upstream().clearFaults();
    if (tapScLink_) {
        tapScLink_->downstream().clearFaults();
        tapScLink_->upstream().clearFaults();
    }
}

namespace
{

/** Balanced B/E span on the "trust" track for one trust phase. */
class TrustSpan
{
  public:
    TrustSpan(sim::System &sys, obs::TrackId track, const char *name)
        : sys_(sys), track_(track), name_(name)
    {
        sys_.tracer().begin(track_, name_, sys_.now());
    }

    ~TrustSpan() { sys_.tracer().end(track_, name_, sys_.now()); }

    TrustSpan(const TrustSpan &) = delete;
    TrustSpan &operator=(const TrustSpan &) = delete;

  private:
    sim::System &sys_;
    obs::TrackId track_;
    const char *name_;
};

} // namespace

TrustReport
Platform::establishTrust()
{
    TrustReport report;
    if (!config_.secure) {
        report.secureBootOk = report.attestationOk = report.sealed =
            true;
        return report;
    }

    if (config_.protection != backend::Kind::CcaiSc) {
        // Rival designs do not simulate the boot/attestation
        // exchange packet by packet; their one-time cost is the
        // backend's sessionEstablishTicks, reported by the
        // cross-backend comparison benches. Negotiate the session
        // key on the backend and record the audit policy so that
        // sealH2d/openD2h and policy queries behave uniformly.
        report.secureBootOk = report.sealed = true;
        Bytes secret = rng_.bytes(32);
        report.attestationOk =
            backend_->establishSession(kTvm.raw(), secret);
        if (!report.attestationOk) {
            report.failure = "backend session already established";
            return report;
        }
        backend_->installPolicy(
            backend::defaultPolicy(kTvm, kXpu, kPcieSc));
        return report;
    }

    const obs::TrackId trust_track = sys_.tracer().track("trust");

    // ---- Manufacturing: CA, HRoTs, encrypted flash images ----
    TrustSpan manufacturing_span(sys_, trust_track, "manufacturing");
    ca_ = std::make_unique<trust::RootCa>(rng_);
    cpuHrot_ =
        std::make_unique<trust::HrotBlade>("cpu-hrot", *ca_, rng_);
    blade_ =
        std::make_unique<trust::HrotBlade>("hrot-blade", *ca_, rng_);
    cpuHrot_->boot(rng_);
    blade_->boot(rng_);

    Bytes flash_secret = rng_.bytes(16);
    crypto::AesGcm flash_key(flash_secret);
    crypto::Drbg drbg(rng_.bytes(32), "platform-flash");

    trust::ExternalFlash flash;
    Bytes filter_image = rng_.bytes(4096);
    Bytes handler_image = rng_.bytes(8192);
    Bytes firmware_image = rng_.bytes(2048);
    flash.store("pcie-sc.packet-filter", trust::pcridx::kScBitstream,
                filter_image, flash_key, drbg);
    flash.store("pcie-sc.packet-handlers", trust::pcridx::kScBitstream,
                handler_image, flash_key, drbg);
    flash.store("pcie-sc.firmware", trust::pcridx::kScFirmware,
                firmware_image, flash_key, drbg);

    TrustSpan secure_boot_span(sys_, trust_track, "secure_boot");
    trust::SecureBoot boot(*blade_, flash_key);
    boot.addGoldenDigest("pcie-sc.packet-filter",
                         crypto::Sha256::digest(filter_image));
    boot.addGoldenDigest("pcie-sc.packet-handlers",
                         crypto::Sha256::digest(handler_image));
    boot.addGoldenDigest("pcie-sc.firmware",
                         crypto::Sha256::digest(firmware_image));
    trust::BootResult boot_result = boot.boot(flash);
    report.secureBootOk = boot_result.success;
    if (!boot_result.success) {
        report.failure = "secure boot: " + boot_result.failure;
        return report;
    }

    // ---- TVM-side measurements (kernel + Adaptor + trust mods) ----
    TrustSpan measurements_span(sys_, trust_track, "tvm_measurements");
    cpuHrot_->pcrs().extend(trust::pcridx::kTvmImage,
                            crypto::Sha256::digest(std::string(
                                "tvm-kernel+ccai_adaptor")),
                            "tvm-image");
    cpuHrot_->pcrs().extend(trust::pcridx::kCpuFirmware,
                            crypto::Sha256::digest(std::string(
                                "cpu-firmware")),
                            "cpu-firmware");

    // ---- Chassis sealing ----
    TrustSpan sealing_span(sys_, trust_track, "chassis_sealing");
    sealing_ = std::make_unique<trust::ChassisSealing>(
        sys_, "sealing", *blade_);
    sealing_->addSensor({"pressure", trust::SensorKind::Pressure,
                         90.0, 110.0, 101.0});
    sealing_->addSensor({"temperature", trust::SensorKind::Temperature,
                         10.0, 80.0, 45.0});
    sealing_->addSensor({"intrusion", trust::SensorKind::Intrusion,
                         0.0, 0.5, 0.0});
    sealing_->pollOnce();
    report.sealed = !sealing_->tamperDetected();

    // ---- Remote attestation (Figure 6) ----
    TrustSpan attestation_span(sys_, trust_track, "attestation");
    trust::AttestationResponder responder(*cpuHrot_, *blade_, rng_);
    trust::AttestationVerifier verifier(*ca_, rng_);

    std::vector<size_t> selection = {
        trust::pcridx::kCpuFirmware, trust::pcridx::kTvmImage,
        trust::pcridx::kScBitstream, trust::pcridx::kScFirmware,
    };
    // The verifier knows the golden PCR values for this release.
    for (size_t idx : selection) {
        verifier.expectPcr(idx, blade_->pcrs().value(idx));
    }
    // CPU-side registers differ; trust the CPU quote's signature
    // chain plus the TVM image golden value.
    verifier.expectPcr(trust::pcridx::kTvmImage,
                       cpuHrot_->pcrs().value(trust::pcridx::kTvmImage));

    trust::Challenge challenge = verifier.makeChallenge(0, selection);
    trust::AttestationReport att = responder.respond(challenge);

    // The blade and CPU quotes share nonce/selection but have
    // different PCR values; validate signatures/nonce on both and
    // PCR values against the blade's goldens.
    trust::VerifyResult vr =
        verifier.verifyReport(att, challenge, responder);
    // The CPU HRoT's bitstream PCRs are unset; accept its quote on
    // signature+nonce only by re-checking just the blade values.
    if (!vr.ok) {
        // Distinguish signature failures from CPU-PCR mismatches.
        bool blade_ok = trust::HrotBlade::verifyQuote(
            att.bladeQuote, responder.bladeAkCert().publicKey);
        bool cpu_ok = trust::HrotBlade::verifyQuote(
            att.cpuQuote, responder.cpuAkCert().publicKey);
        if (!blade_ok || !cpu_ok) {
            report.failure = "attestation: " + vr.reason;
            return report;
        }
    }
    report.attestationOk = true;

    // ---- TVM <-> PCIe-SC workload key negotiation ----
    TrustSpan keyneg_span(sys_, trust_track, "key_negotiation");
    crypto::KeyPair tvm_keys = crypto::generateKeyPair(rng_);
    crypto::KeyPair sc_keys = blade_->makeSessionKeys(rng_);
    Bytes secret_tvm =
        crypto::computeSharedSecret(tvm_keys.priv, sc_keys.pub);
    Bytes secret_sc =
        crypto::computeSharedSecret(sc_keys.priv, tvm_keys.pub);
    ccai_assert(secret_tvm == secret_sc);

    sc_->establishTenant(kTvm, secret_sc,
                         tenantSlice(mm::kBounceD2h, 0),
                         tenantSlice(mm::kMetadataBuffer, 0));
    adaptor_->establishSession(secret_tvm);
    backend_->establishSession(kTvm.raw(), secret_tvm);

    // ---- Packet policy ----
    TrustSpan policy_span(sys_, trust_track, "policy_install");
    installPolicyForAllTenants();
    adaptor_->hwInit();

    // Arm the crash-recovery layer for the established platform.
    installRecoveryHooks();
    recovery_->registerTenant(0, kTvm.raw());

    return report;
}

pcie::AddrRange
Platform::tenantSlice(pcie::AddrRange region, std::uint32_t slot) const
{
    std::uint64_t slice = region.size / std::max(1u, config_.maxTenants);
    ccai_assert(slot < std::max(1u, config_.maxTenants));
    return pcie::AddrRange{region.base + slot * slice, slice};
}

void
Platform::installPolicyForAllTenants()
{
    // Quarantined tenants lose their requester-ID authorization:
    // the packet filter A1-drops everything they send.
    auto admitted = [this](std::uint16_t bdfRaw) {
        return !recovery_ || !recovery_->quarantinedBdf(bdfRaw);
    };
    std::vector<pcie::Bdf> tvms;
    if (admitted(kTvm.raw()))
        tvms.push_back(kTvm);
    for (const auto &tenant : tenants_) {
        if (admitted(tenant->bdf.raw()))
            tvms.push_back(tenant->bdf);
    }
    sc::RuleTables policy = sc::defaultPolicy(tvms, kXpu, kPcieSc);
    // Route through the backend: CcaiScBackend validates and pushes
    // the tables to the PCIe-SC's rule memory.
    backend_->installPolicy(policy);
    if (admitted(kTvm.raw()))
        adaptor_->setPolicy(policy);
}

Platform::Tenant &
Platform::addTenant(pcie::Bdf bdf)
{
    if (!config_.secure || !sc_)
        fatal("addTenant: requires a secure platform with the ccai "
              "backend (per-tenant sessions live on the PCIe-SC)");
    if (!blade_)
        fatal("addTenant: establish trust first");
    std::uint32_t slot =
        static_cast<std::uint32_t>(tenants_.size()) + 1;
    if (slot >= config_.maxTenants)
        fatal("addTenant: no free tenant slot (maxTenants=%u)",
              config_.maxTenants);

    auto tenant = std::make_unique<Tenant>();
    tenant->bdf = bdf;
    std::string prefix = "tenant" + std::to_string(slot);
    tenant->tvm = std::make_unique<tvm::Tvm>(
        sys_, prefix + ".tvm", *rc_, bdf, config_.tvmTiming);

    tvm::AdaptorConfig cfg = config_.adaptorConfig;
    cfg.retry = config_.retry;
    cfg.h2dWindow = tenantSlice(mm::kBounceH2d, slot);
    cfg.d2hWindow = tenantSlice(mm::kBounceD2h, slot);
    cfg.metaWindow = tenantSlice(mm::kMetadataBuffer, slot);
    tenant->adaptor = std::make_unique<tvm::Adaptor>(
        sys_, prefix + ".adaptor", *tenant->tvm, cfg,
        config_.adaptorTiming);
    tenant->driver = std::make_unique<tvm::XpuDriver>(
        sys_, prefix + ".driver", *tenant->tvm,
        tenant->adaptor.get());
    tenant->runtime = std::make_unique<tvm::Runtime>(
        sys_, prefix + ".ccrt", *tenant->tvm, *tenant->driver,
        tvm::RuntimeMode::Secure, tenant->adaptor.get());

    // Completions for this tenant route back to the root port.
    switch_->mapRoutingId(bdf, 0);

    // Key negotiation with the PCIe-SC's HRoT-Blade, as the owner
    // did during trust establishment.
    crypto::KeyPair tenant_keys = crypto::generateKeyPair(rng_);
    crypto::KeyPair sc_keys = blade_->makeSessionKeys(rng_);
    Bytes secret_tenant =
        crypto::computeSharedSecret(tenant_keys.priv, sc_keys.pub);
    Bytes secret_sc =
        crypto::computeSharedSecret(sc_keys.priv, tenant_keys.pub);
    ccai_assert(secret_tenant == secret_sc);

    sc_->establishTenant(bdf, secret_sc,
                         tenantSlice(mm::kBounceD2h, slot),
                         tenantSlice(mm::kMetadataBuffer, slot));
    tenant->adaptor->establishSession(secret_tenant);
    backend_->establishSession(bdf.raw(), secret_tenant);

    tenants_.push_back(std::move(tenant));
    // Authorize the new requester ID in the packet policy.
    installPolicyForAllTenants();
    tenants_.back()->adaptor->hwInit();
    if (recovery_)
        recovery_->registerTenant(slot, bdf.raw());
    sys_.tracer().instant(sys_.tracer().track("trust"),
                          "tenant_attached", sys_.now(), prefix);
    return *tenants_.back();
}

Platform::Tenant *
Platform::tryAddTenant(pcie::Bdf bdf)
{
    if (recovery_ && recovery_->quarantinedBdf(bdf.raw())) {
        warn("addTenant: requester 0x%04x is quarantined; admission "
             "rejected",
             bdf.raw());
        return nullptr;
    }
    return &addTenant(bdf);
}

tvm::Adaptor &
Platform::adaptorFor(std::uint32_t slot)
{
    return slot == 0 ? *adaptor_ : *tenants_.at(slot - 1)->adaptor;
}

tvm::Runtime &
Platform::runtimeFor(std::uint32_t slot)
{
    return slot == 0 ? *runtime_ : *tenants_.at(slot - 1)->runtime;
}

pcie::Bdf
Platform::bdfFor(std::uint32_t slot) const
{
    return slot == 0 ? kTvm : tenants_.at(slot - 1)->bdf;
}

tvm::Adaptor *
Platform::probeAdaptor()
{
    if (!recovery_ || !recovery_->quarantined(0))
        return adaptor_.get();
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        if (!recovery_->quarantined(static_cast<std::uint32_t>(i) + 1))
            return tenants_[i]->adaptor.get();
    }
    return nullptr;
}

bool
Platform::reattestTenant(std::uint32_t slot)
{
    if (!config_.secure || !sc_ || !blade_ || !cpuHrot_)
        return false;
    if (slot > tenants_.size())
        return false;
    if (!blade_->booted() || !cpuHrot_->booted())
        return false;

    // Fresh attestation round (Figure 6, re-run): a crashed and
    // rebooted blade carries a new AK, so nothing from the previous
    // session may be trusted until a new quote verifies against the
    // current PCR values.
    trust::AttestationResponder responder(*cpuHrot_, *blade_, rng_);
    trust::AttestationVerifier verifier(*ca_, rng_);
    std::vector<size_t> selection = {
        trust::pcridx::kCpuFirmware, trust::pcridx::kTvmImage,
        trust::pcridx::kScBitstream, trust::pcridx::kScFirmware,
    };
    for (size_t idx : selection)
        verifier.expectPcr(idx, blade_->pcrs().value(idx));
    verifier.expectPcr(
        trust::pcridx::kTvmImage,
        cpuHrot_->pcrs().value(trust::pcridx::kTvmImage));

    trust::Challenge challenge = verifier.makeChallenge(slot, selection);
    trust::AttestationReport att = responder.respond(challenge);
    trust::VerifyResult vr =
        verifier.verifyReport(att, challenge, responder);
    if (!vr.ok) {
        // As in establishTrust: the CPU HRoT's bitstream PCRs are
        // unset, so accept signature+nonce-valid quotes whose only
        // mismatch is the CPU-side PCR values.
        bool blade_ok = trust::HrotBlade::verifyQuote(
            att.bladeQuote, responder.bladeAkCert().publicKey);
        bool cpu_ok = trust::HrotBlade::verifyQuote(
            att.cpuQuote, responder.cpuAkCert().publicKey);
        if (!blade_ok || !cpu_ok)
            return false;
    }

    // Fresh DHKE -> new workload keys on both ends. The Adaptor
    // destroyed the old epoch's keys in abortSession(); the SC's are
    // overwritten by establishTenant.
    crypto::KeyPair tenant_keys = crypto::generateKeyPair(rng_);
    crypto::KeyPair sc_keys = blade_->makeSessionKeys(rng_);
    Bytes secret_tenant =
        crypto::computeSharedSecret(tenant_keys.priv, sc_keys.pub);
    Bytes secret_sc =
        crypto::computeSharedSecret(sc_keys.priv, tenant_keys.pub);
    if (secret_tenant != secret_sc)
        return false;

    sc_->establishTenant(bdfFor(slot), secret_sc,
                         tenantSlice(mm::kBounceD2h, slot),
                         tenantSlice(mm::kMetadataBuffer, slot));
    adaptorFor(slot).establishSession(secret_tenant);
    installPolicyForAllTenants();
    adaptorFor(slot).hwInit();
    return true;
}

void
Platform::installRecoveryHooks()
{
    RecoveryManager::Hooks hooks;
    hooks.inject = [this](FaultDomain domain) {
        switch (domain) {
          case FaultDomain::PcieSc:
            sc_->firmwareHang();
            return;
          case FaultDomain::Xpu:
            xpu_->wedge();
            return;
          case FaultDomain::Hrot:
            if (blade_)
                blade_->crash();
            return;
        }
    };
    hooks.probeSc = [this](std::function<void(bool)> reply) {
        if (tvm::Adaptor *prober = probeAdaptor())
            prober->pingSc(std::move(reply));
        else
            reply(true); // no tenant left to probe for
    };
    hooks.probeXpu = [this](std::function<void(bool)> reply) {
        if (tvm::Adaptor *prober = probeAdaptor())
            prober->pingXpu(std::move(reply));
        else
            reply(true);
    };
    hooks.probeHrot = [this] { return blade_ && blade_->booted(); };
    hooks.resetPlatform = [this](FaultDomain) {
        // Repair every crashed component, not only the blamed one: a
        // hung SC masks a wedged xPU behind it, and a half-repaired
        // platform would fail the next probe round anyway.
        if (sc_->firmwareHung())
            sc_->firmwareRestart();
        if (blade_ && !blade_->booted())
            blade_->boot(rng_);
        // Session teardown destroys the SC-side workload keys and
        // fires the EnvGuard scrub; the cold reset it triggers also
        // un-wedges the xPU and retires its in-flight completions.
        if (sc_->sessionEstablished())
            sc_->endTask(false);
        else
            sc_->envGuard().cleanEnvironment(false);
        adaptor_->abortSession();
        tvm_->clearInterruptWaiters();
        for (auto &tenant : tenants_) {
            tenant->adaptor->abortSession();
            tenant->tvm->clearInterruptWaiters();
        }
        rc_->abortTransport();
    };
    hooks.reattest = [this](std::uint32_t slot) {
        return reattestTenant(slot);
    };
    hooks.issueRoundTrip = [this](std::uint32_t slot, Addr devAddr,
                                  const Bytes &data,
                                  std::function<void(Bytes)> done) {
        tvm::Runtime &rt = runtimeFor(slot);
        std::uint64_t length = data.size();
        rt.memcpyH2D(devAddr, data, length,
                     [&rt, devAddr, length,
                      done = std::move(done)]() mutable {
                         rt.memcpyD2H(devAddr, length,
                                      /*synthetic=*/false,
                                      std::move(done));
                     });
    };
    hooks.issueKernel = [this](std::uint32_t slot, Tick duration,
                               std::function<void()> done) {
        tvm::Runtime &rt = runtimeFor(slot);
        rt.launchKernel(duration);
        rt.synchronize(std::move(done));
    };
    hooks.onQuarantine = [this](std::uint32_t slot) {
        warn("platform: tenant slot %u quarantined", slot);
        installPolicyForAllTenants(); // revoke its requester ID
    };
    recovery_->setHooks(std::move(hooks));
}

std::string
Platform::exportMetricsJson(bool includeWall)
{
    sim::MetricsSnapshotInfo info;
    info.source = "platform";
    info.seed = effectiveSeed_;
    info.secure = config_.secure;

    // Per-tenant traffic rollups, derived from each Adaptor's
    // counters. Cold path: the string-keyed lookups are fine here.
    auto tenants = [this](obs::JsonEmitter &json) {
        auto rollup = [&](const std::string &label,
                          tvm::Adaptor &ad) {
            const auto &counters = ad.stats().counters();
            auto get = [&](const char *name) -> std::uint64_t {
                auto it = counters.find(name);
                return it != counters.end() ? it->second.value() : 0;
            };
            json.key(label);
            json.beginObject();
            json.field("h2d_bytes", get("h2d_bytes"));
            json.field("d2h_bytes", get("d2h_bytes"));
            json.field("h2d_chunks", get("h2d_chunks"));
            json.field("d2h_integrity_failures",
                       get("d2h_integrity_failures"));
            json.field("d2h_chunk_retries",
                       get("d2h_chunk_retries"));
            json.field("transport_retransmits",
                       get("transport_retransmits"));
            json.endObject();
        };
        if (adaptor_)
            rollup("owner", *adaptor_);
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            rollup("tenant" + std::to_string(i + 1),
                   *tenants_[i]->adaptor);
    };

    sim::SnapshotSectionWriter extra;
    if (includeWall) {
        // Wall-clock data lives in its own section: it varies run to
        // run and across hosts, unlike every sim-time section above.
        extra = [](obs::JsonEmitter &json) {
            crypto::WorkerPool &pool = crypto::WorkerPool::shared();
            json.key("wall");
            json.beginObject();
            json.key("worker_pool");
            json.beginObject();
            json.field("max_workers", pool.maxWorkers());
            json.field("spawned_workers", pool.spawnedWorkers());
            json.field("parallel_batches", pool.parallelBatches());
            json.field("inline_batches", pool.inlineBatches());
            json.field("worker_ranges", pool.workerRanges());
            json.key("queue_wait_ns");
            pool.queueWaitHistogram().writeJson(
                json, /*withBuckets=*/false);
            json.endObject();

            // Buffer-pool recycling efficiency for TLP payload
            // copies. Counts depend on worker interleaving, hence
            // wall-section placement.
            BufferPool &bufs = BufferPool::global();
            json.key("buffer_pool");
            json.beginObject();
            json.field("hits", bufs.hits());
            json.field("misses", bufs.misses());
            json.field("outstanding", bufs.outstanding());
            json.field("outstanding_high_watermark",
                       bufs.outstandingHighWatermark());
            json.field(
                "free_buffers",
                static_cast<std::uint64_t>(bufs.freeBuffers()));
            json.key("class_high_watermarks");
            json.beginArray();
            for (std::uint64_t hw : bufs.classHighWatermarks())
                json.value(hw);
            json.endArray();
            json.endObject();
            json.endObject();
        };
    }

    return sim::exportMetricsSnapshot(sys_, info, tenants, extra);
}

bool
Platform::exportTrace(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        return false;
    sys_.tracer().writeChromeTrace(os);
    os.flush();
    return os.good();
}

} // namespace ccai
