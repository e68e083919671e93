/**
 * @file
 * Protection-backend conformance suite. Backends are data: every
 * kind must round-trip through its name, and its cost model and
 * TCB descriptor must match the canonical tables. Policy shape is
 * checked by RuleTables::wellFormed(), the rule the Platform applies
 * before it installs a policy on the PCIe-SC, which only the ccai
 * kind builds. Golden pins assert
 * that each backend still reproduces its Figure-8 numbers
 * bit-for-bit.
 */

#include <gtest/gtest.h>

#include "backend/policy.hh"
#include "backend/protection_backend.hh"
#include "ccai/experiment.hh"
#include "ccai/platform.hh"
#include "sc/pcie_sc.hh"

using namespace ccai;
using namespace ccai::backend;

namespace
{

/** A well-formed policy: one forward + deny-all. */
RuleTables
minimalPolicy()
{
    RuleTables tables;
    L1Rule forward;
    forward.mask = kMatchRequester;
    forward.requester = pcie::wellknown::kTvm;
    forward.verdict = L1Verdict::ToL2Table;
    tables.addL1(forward);
    tables.addL1(L1Rule{}); // mask 0 + ExecuteA1 = deny default
    L2Rule cls;
    cls.anyRequester = true;
    cls.anyCompleter = true;
    cls.action = SecurityAction::A4_Transparent;
    tables.addL2(cls);
    return tables;
}

} // namespace

class BackendConformance : public ::testing::TestWithParam<Kind>
{};

TEST_P(BackendConformance, FactoryKindAndNameRoundTrip)
{
    auto parsed = parseKind(kindName(GetParam()));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, GetParam());
}

TEST_P(BackendConformance, PolicyInstallAccepted)
{
    using pcie::wellknown::kPcieSc;
    using pcie::wellknown::kTvm;
    using pcie::wellknown::kXpu;

    const RuleTables policy = defaultPolicy(kTvm, kXpu, kPcieSc);
    EXPECT_TRUE(policy.wellFormed());
    // Every tenant quarantined: the xPU's rules and the default stay.
    EXPECT_TRUE(
        defaultPolicy(std::vector<pcie::Bdf>{}, kXpu, kPcieSc).wellFormed());
    EXPECT_TRUE(minimalPolicy().wellFormed());

    // Only an interposer has a packet filter to install a policy on;
    // the rivals build no PCIe-SC at all.
    LogConfig::Quiet quiet;
    PlatformConfig cfg;
    cfg.protection = GetParam();
    Platform platform(cfg);
    ASSERT_TRUE(platform.establishTrust().ok());
    sc::PcieSc *sc = platform.pcieSc();
    ASSERT_EQ(sc != nullptr, tcbFor(GetParam()).packetFilter);
    if (sc == nullptr)
        return;

    const RuleTables &installed = sc->filter().tables();
    EXPECT_TRUE(installed.wellFormed());
    EXPECT_EQ(installed.l1Size(), policy.l1Size());
    EXPECT_EQ(installed.l2Size(), policy.l2Size());

    sc->installPolicy(minimalPolicy());
    EXPECT_EQ(sc->filter().tables().l1Size(), minimalPolicy().l1Size());
    EXPECT_EQ(sc->filter().tables().l2Size(), minimalPolicy().l2Size());
}

TEST_P(BackendConformance, PolicyRejectsMalformedTables)
{
    // Empty tables authorize nothing.
    EXPECT_FALSE(RuleTables{}.wellFormed());

    // L1 rules without any L2 classification.
    RuleTables no_l2;
    no_l2.addL1(L1Rule{});
    EXPECT_FALSE(no_l2.wellFormed());

    // Missing the trailing deny-all default: last rule matches a
    // specific field instead of everything.
    RuleTables masked_last = minimalPolicy();
    L1Rule specific;
    specific.mask = kMatchType;
    specific.verdict = L1Verdict::ExecuteA1;
    masked_last.addL1(specific);
    EXPECT_FALSE(masked_last.wellFormed());

    // Catch-all that forwards instead of denying.
    RuleTables open_last;
    L1Rule forward_all;
    forward_all.mask = 0;
    forward_all.verdict = L1Verdict::ToL2Table;
    open_last.addL1(forward_all);
    open_last.addL2(minimalPolicy().l2().front());
    EXPECT_FALSE(open_last.wellFormed());

    // Before trust is established a ccai platform's filter holds no
    // policy, so it authorizes nothing; a rival has no filter.
    LogConfig::Quiet quiet;
    PlatformConfig cfg;
    cfg.protection = GetParam();
    Platform platform(cfg);
    sc::PcieSc *sc = platform.pcieSc();
    ASSERT_EQ(sc != nullptr, tcbFor(GetParam()).packetFilter);
    if (sc != nullptr)
        EXPECT_FALSE(sc->filter().tables().wellFormed());
}

TEST_P(BackendConformance, CostModelMatchesCanonicalTable)
{
    // The table the serving roofline, the comparison benches and the
    // rivals' packet path read.
    struct Row
    {
        Kind kind;
        double seal, open, device;
        Tick transfer, request, session;
        double compute;
    };
    const Row rows[] = {
        {Kind::CcaiSc, 0.0, 0.0, 0.0, 0, 150 * kTicksPerUs,
         120 * kTicksPerMs, 1.12},
        {Kind::H100Cc, 4.5e9, 4.5e9, 40.0e9, 2 * kTicksPerUs,
         60 * kTicksPerUs, 1500 * kTicksPerMs, 1.04},
        {Kind::Acai, 0.0, 0.0, 0.0, 600 * kTicksPerNs, 25 * kTicksPerUs,
         2500 * kTicksPerMs, 1.03},
    };
    const Row &want = rows[static_cast<std::size_t>(GetParam())];
    ASSERT_EQ(want.kind, GetParam());
    const CostModel cost = costModelFor(GetParam());
    EXPECT_EQ(cost.hostSealBytesPerSec, want.seal);
    EXPECT_EQ(cost.hostOpenBytesPerSec, want.open);
    EXPECT_EQ(cost.deviceCryptoBytesPerSec, want.device);
    EXPECT_EQ(cost.perTransferSetup, want.transfer);
    EXPECT_EQ(cost.perRequestSetup, want.request);
    EXPECT_EQ(cost.sessionEstablishTicks, want.session);
    EXPECT_EQ(cost.computeOverhead, want.compute);

    // Delay hooks are pure functions of the model: zero rate means
    // a free hook; a non-zero rate converts bytes at that rate.
    if (cost.hostSealBytesPerSec == 0.0) {
        EXPECT_EQ(cost.hostSealDelay(1 << 20), 0u);
    } else {
        Tick one_sec = cost.hostSealDelay(
            static_cast<std::uint64_t>(cost.hostSealBytesPerSec));
        EXPECT_NEAR(static_cast<double>(one_sec),
                    static_cast<double>(kTicksPerSec),
                    static_cast<double>(kTicksPerSec) * 1e-9);
    }
    if (cost.hostOpenBytesPerSec == 0.0) {
        EXPECT_EQ(cost.hostOpenDelay(1 << 20), 0u);
    }
    if (cost.deviceCryptoBytesPerSec == 0.0) {
        EXPECT_EQ(cost.deviceCryptoDelay(1 << 20), 0u);
    }
}

TEST_P(BackendConformance, TcbDescriptorShape)
{
    const TcbDescriptor tcb = tcbFor(GetParam());
    EXPECT_GT(tcb.addedTcbKloc, 0.0);
    EXPECT_STRNE(tcb.trustAnchor, "");
    if (GetParam() == Kind::CcaiSc) {
        EXPECT_TRUE(tcb.interposer);
        EXPECT_TRUE(tcb.packetFilter);
        EXPECT_TRUE(tcb.perTlpCrypto);
        EXPECT_TRUE(tcb.legacyDeviceOk);
        EXPECT_TRUE(tcb.stackUnmodified);
    } else {
        // The rivals' whole point of comparison: no interposer, no
        // per-TLP filter, and they need a modified device or stack.
        EXPECT_FALSE(tcb.interposer);
        EXPECT_FALSE(tcb.packetFilter);
        EXPECT_FALSE(tcb.perTlpCrypto);
        EXPECT_FALSE(tcb.legacyDeviceOk);
        EXPECT_FALSE(tcb.stackUnmodified);
    }
    EXPECT_TRUE(tcb.appUnmodified);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BackendConformance,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto &info) {
                             return std::string(kindName(info.param));
                         });

TEST(BackendKinds, ParseKindAliases)
{
    EXPECT_EQ(parseKind("ccai"), Kind::CcaiSc);
    EXPECT_EQ(parseKind("ccai-sc"), Kind::CcaiSc);
    EXPECT_EQ(parseKind("sc"), Kind::CcaiSc);
    EXPECT_EQ(parseKind("h100cc"), Kind::H100Cc);
    EXPECT_EQ(parseKind("h100"), Kind::H100Cc);
    EXPECT_EQ(parseKind("gpu-cc"), Kind::H100Cc);
    EXPECT_EQ(parseKind("acai"), Kind::Acai);
    EXPECT_EQ(parseKind("sgx"), std::nullopt);
    EXPECT_EQ(parseKind(""), std::nullopt);
}

TEST(PlatformConfigValidation, DefaultsAreValid)
{
    EXPECT_EQ(PlatformConfig{}.validationError(), "");
}

TEST(PlatformConfigValidation, BrokenKnobsNameTheField)
{
    PlatformConfig threads;
    threads.scConfig.dataEngineThreads = 0;
    EXPECT_NE(threads.validationError().find("dataEngineThreads"),
              std::string::npos);

    PlatformConfig batch;
    batch.scConfig.metaBatchSize = 0;
    EXPECT_NE(batch.validationError().find("metaBatchSize"),
              std::string::npos);

    PlatformConfig chunk;
    chunk.adaptorConfig.chunkBytes = 0;
    EXPECT_NE(chunk.validationError().find("chunkBytes"),
              std::string::npos);

    PlatformConfig tenants;
    tenants.maxTenants = 0;
    EXPECT_NE(tenants.validationError().find("maxTenants"),
              std::string::npos);
}

TEST(PlatformConfigValidation, RivalBackendsRejectScOnlyFeatures)
{
    PlatformConfig tap;
    tap.protection = Kind::H100Cc;
    tap.attachBusTap = true;
    EXPECT_NE(tap.validationError().find("attachBusTap"),
              std::string::npos);

    PlatformConfig multi;
    multi.protection = Kind::Acai;
    multi.maxTenants = 4;
    EXPECT_NE(multi.validationError().find("maxTenants"),
              std::string::npos);

    // The constraints bind only on a secure platform; a vanilla
    // platform ignores the protection knob entirely.
    PlatformConfig vanilla = tap;
    vanilla.secure = false;
    EXPECT_EQ(vanilla.validationError(), "");

    // And the ccai backend supports both features.
    PlatformConfig ccai = tap;
    ccai.protection = Kind::CcaiSc;
    ccai.maxTenants = 4;
    EXPECT_EQ(ccai.validationError(), "");
}

namespace
{

llm::InferenceConfig
fig8Config(std::uint32_t batch, std::uint32_t tokens)
{
    llm::InferenceConfig cfg;
    cfg.model = llm::ModelSpec::llama2_7b();
    cfg.batch = batch;
    cfg.inTokens = tokens;
    return cfg;
}

/** Absorbs only the bench JSON emitter's 12-decimal rounding. */
constexpr double kJsonUlp = 1e-11;

} // namespace

/**
 * The refactor's bit-identity pin: the default (ccai) backend must
 * reproduce the pre-refactor Figure-8 goldens. The constants are the
 * values BENCH_fig8.json carried before the backend API existed
 * (sha256 97dec4bd1189…); the tolerance only absorbs the JSON
 * emitter's 12-decimal rounding, so any modeling drift — an extra
 * event, a reordered hook — fails the pin.
 */
TEST(CcaiScGoldenPin, Fig8NumbersAreBitIdentical)
{
    LogConfig::Quiet quiet;

    ComparisonResult tok64 = runComparison(fig8Config(1, 64));
    EXPECT_NEAR(tok64.vanilla.e2eSeconds, 1.476354043498, kJsonUlp);
    EXPECT_NEAR(tok64.secure.e2eSeconds, 1.479171350313, kJsonUlp);
    EXPECT_NEAR(tok64.vanilla.ttftSeconds, 0.015860903548, kJsonUlp);
    EXPECT_NEAR(tok64.secure.ttftSeconds, 0.016773013479, kJsonUlp);

    ComparisonResult tok128 = runComparison(fig8Config(1, 128));
    EXPECT_NEAR(tok128.vanilla.e2eSeconds, 1.781729177005, kJsonUlp);
    EXPECT_NEAR(tok128.secure.e2eSeconds, 1.784929645674, kJsonUlp);

    ComparisonResult bat3 = runComparison(fig8Config(3, 128));
    EXPECT_NEAR(bat3.vanilla.e2eSeconds, 1.839303082745, kJsonUlp);
    EXPECT_NEAR(bat3.secure.e2eSeconds, 1.845868140781, kJsonUlp);
    EXPECT_NEAR(bat3.vanilla.ttftSeconds, 0.047894973622, kJsonUlp);
    EXPECT_NEAR(bat3.secure.ttftSeconds, 0.048824726219, kJsonUlp);
}

/**
 * The same pin for Figure 11's non-optimized design: per-record MMIO
 * record reads, per-subtask notifies, software AES on one thread. It
 * guards the per-record D2H path, which Figure 8 never takes.
 */
TEST(CcaiScGoldenPin, Fig11NoOptNumbersAreBitIdentical)
{
    LogConfig::Quiet quiet;
    PlatformConfig noOpt;
    noOpt.secure = true;
    noOpt.adaptorConfig = tvm::AdaptorConfig::noOptimizations();

    llm::InferenceMetrics tok64 = runInference(noOpt, fig8Config(1, 64));
    EXPECT_NEAR(tok64.e2eSeconds, 1.506136112589, kJsonUlp);
    EXPECT_NEAR(tok64.ttftSeconds, 0.016942135796, kJsonUlp);

    llm::InferenceMetrics bat3 = runInference(noOpt, fig8Config(3, 128));
    EXPECT_NEAR(bat3.e2eSeconds, 1.942132013410, kJsonUlp);
    EXPECT_NEAR(bat3.ttftSeconds, 0.049329717424, kJsonUlp);
}

TEST(CcaiScGoldenPin, SameSeedReplayIsExact)
{
    LogConfig::Quiet quiet;
    ComparisonResult first = runComparison(fig8Config(1, 64));
    ComparisonResult second = runComparison(fig8Config(1, 64));
    EXPECT_EQ(first.vanilla.e2eSeconds, second.vanilla.e2eSeconds);
    EXPECT_EQ(first.secure.e2eSeconds, second.secure.e2eSeconds);
    EXPECT_EQ(first.vanilla.ttftSeconds, second.vanilla.ttftSeconds);
    EXPECT_EQ(first.secure.ttftSeconds, second.secure.ttftSeconds);
    EXPECT_EQ(first.vanilla.tps, second.vanilla.tps);
    EXPECT_EQ(first.secure.tps, second.secure.tps);
}

/** Rival backends must run the same workload, just slower. */
TEST(RivalBackends, Fig8CompletesWithHigherOverhead)
{
    LogConfig::Quiet quiet;
    ComparisonResult ccai = runComparison(fig8Config(1, 64));

    PlatformConfig h100;
    h100.protection = Kind::H100Cc;
    ComparisonResult h100cc = runComparison(fig8Config(1, 64), h100);

    PlatformConfig acai_cfg;
    acai_cfg.protection = Kind::Acai;
    ComparisonResult acai =
        runComparison(fig8Config(1, 64), acai_cfg);

    // Same vanilla baseline in all three sweeps.
    EXPECT_EQ(ccai.vanilla.e2eSeconds, h100cc.vanilla.e2eSeconds);
    EXPECT_EQ(ccai.vanilla.e2eSeconds, acai.vanilla.e2eSeconds);

    // The paper's claim, preserved by construction: the interposed
    // design's overhead undercuts both cost-modelled rivals.
    EXPECT_GT(h100cc.e2eOverheadPct(), ccai.e2eOverheadPct());
    EXPECT_GT(acai.e2eOverheadPct(), ccai.e2eOverheadPct());
    EXPECT_GT(h100cc.e2eOverheadPct(), 0.0);
    EXPECT_GT(acai.e2eOverheadPct(), 0.0);
}

/**
 * The rivals' pin: the h100cc and acai Figure-8 numbers
 * (BENCH_fig8_h100cc.json sha256 10d0513b…, BENCH_fig8_acai.json
 * e8d57174…, both --quick) at 64 tokens and at batch 3, with the
 * ccAI pin's tolerance. Their vanilla baseline is ccAI's.
 */
TEST(RivalBackends, Fig8NumbersArePinned)
{
    LogConfig::Quiet quiet;
    PlatformConfig h100;
    h100.protection = Kind::H100Cc;
    PlatformConfig acai;
    acai.protection = Kind::Acai;

    llm::InferenceMetrics m = runInference(h100, fig8Config(1, 64));
    EXPECT_NEAR(m.e2eSeconds, 1.536483159458, kJsonUlp);
    EXPECT_NEAR(m.ttftSeconds, 0.016549011778, kJsonUlp);
    m = runInference(h100, fig8Config(3, 128));
    EXPECT_NEAR(m.e2eSeconds, 1.920081565774, kJsonUlp);
    EXPECT_NEAR(m.ttftSeconds, 0.049895615605, kJsonUlp);

    m = runInference(acai, fig8Config(1, 64));
    EXPECT_NEAR(m.e2eSeconds, 1.519243146602, kJsonUlp);
    EXPECT_NEAR(m.ttftSeconds, 0.016343270588, kJsonUlp);
    m = runInference(acai, fig8Config(3, 128));
    EXPECT_NEAR(m.e2eSeconds, 1.892684531449, kJsonUlp);
    EXPECT_NEAR(m.ttftSeconds, 0.049337770294, kJsonUlp);
}
