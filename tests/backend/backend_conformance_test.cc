/**
 * @file
 * Protection-backend conformance suite: every backend kind must
 * honor the same contract — session lifecycle, policy
 * install/reject, functional seal/open round-trips, deterministic
 * same-secret replay, and a cost model matching the canonical
 * tables. A separate golden pin asserts the default (ccai) backend
 * still reproduces the pre-refactor Figure-8 numbers bit-for-bit.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "backend/protection_backend.hh"
#include "ccai/experiment.hh"

using namespace ccai;
using namespace ccai::backend;

namespace
{

Bytes
bytesOf(const char *s)
{
    return Bytes(s, s + std::strlen(s));
}

Bytes
ivOf(std::uint8_t seed)
{
    return Bytes(12, seed);
}

/** A policy that passes base validation: one forward + deny-all. */
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
{
  protected:
    std::unique_ptr<ProtectionBackend> backend_ =
        makeBackend(GetParam());
};

TEST_P(BackendConformance, FactoryKindAndNameRoundTrip)
{
    ASSERT_NE(backend_, nullptr);
    EXPECT_EQ(backend_->kind(), GetParam());
    EXPECT_STREQ(backend_->name(), kindName(GetParam()));
    auto parsed = parseKind(backend_->name());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, GetParam());
}

TEST_P(BackendConformance, SessionLifecycle)
{
    EXPECT_EQ(backend_->sessionCount(), 0u);
    EXPECT_FALSE(backend_->sessionActive(0x0100));

    EXPECT_TRUE(backend_->establishSession(0x0100, bytesOf("s0")));
    EXPECT_TRUE(backend_->sessionActive(0x0100));
    EXPECT_EQ(backend_->sessionCount(), 1u);

    // Double-establish is refused and leaves the session intact.
    EXPECT_FALSE(backend_->establishSession(0x0100, bytesOf("s1")));
    EXPECT_EQ(backend_->sessionCount(), 1u);

    EXPECT_TRUE(backend_->establishSession(0x0200, bytesOf("s2")));
    EXPECT_EQ(backend_->sessionCount(), 2u);

    backend_->endSession(0x0100);
    EXPECT_FALSE(backend_->sessionActive(0x0100));
    EXPECT_TRUE(backend_->sessionActive(0x0200));
    backend_->endSession(0x0100); // idempotent
    EXPECT_EQ(backend_->sessionCount(), 1u);

    // A fresh session for a torn-down tenant is allowed again.
    EXPECT_TRUE(backend_->establishSession(0x0100, bytesOf("s3")));
}

TEST_P(BackendConformance, PolicyInstallAccepted)
{
    using pcie::wellknown::kPcieSc;
    using pcie::wellknown::kTvm;
    using pcie::wellknown::kXpu;

    EXPECT_FALSE(backend_->policyInstalled());
    RuleTables policy = defaultPolicy(kTvm, kXpu, kPcieSc);
    EXPECT_TRUE(backend_->installPolicy(policy));
    EXPECT_TRUE(backend_->policyInstalled());
    EXPECT_EQ(backend_->policy().l1Size(), policy.l1Size());
    EXPECT_EQ(backend_->policy().l2Size(), policy.l2Size());

    EXPECT_TRUE(backend_->installPolicy(minimalPolicy()));
    EXPECT_EQ(backend_->policy().l2Size(),
              minimalPolicy().l2Size());
}

TEST_P(BackendConformance, PolicyRejectsMalformedTables)
{
    // Empty tables authorize nothing.
    EXPECT_FALSE(backend_->installPolicy(RuleTables{}));
    EXPECT_FALSE(backend_->policyInstalled());

    // L1 rules without any L2 classification.
    RuleTables no_l2;
    no_l2.addL1(L1Rule{});
    EXPECT_FALSE(backend_->installPolicy(no_l2));

    // Missing the trailing deny-all default: last rule matches a
    // specific field instead of everything.
    RuleTables masked_last = minimalPolicy();
    L1Rule specific;
    specific.mask = kMatchType;
    specific.verdict = L1Verdict::ExecuteA1;
    masked_last.addL1(specific);
    EXPECT_FALSE(backend_->installPolicy(masked_last));

    // Catch-all that forwards instead of denying.
    RuleTables open_last;
    L1Rule forward_all;
    forward_all.mask = 0;
    forward_all.verdict = L1Verdict::ToL2Table;
    open_last.addL1(forward_all);
    open_last.addL2(minimalPolicy().l2().front());
    EXPECT_FALSE(backend_->installPolicy(open_last));

    EXPECT_FALSE(backend_->policyInstalled());
}

TEST_P(BackendConformance, SealOpenRoundTrip)
{
    ASSERT_TRUE(backend_->establishSession(0x0100, bytesOf("seed")));
    const Bytes plain = bytesOf("attention weights");
    const Bytes iv = ivOf(0x41);

    Bytes tag;
    auto sealed = backend_->sealH2d(0x0100, iv, plain, &tag);
    ASSERT_TRUE(sealed.has_value());
    EXPECT_EQ(sealed->size(), plain.size());
    EXPECT_NE(*sealed, plain);
    EXPECT_EQ(tag.size(), 16u);

    auto opened = backend_->openD2h(0x0100, iv, *sealed, tag);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, plain);
}

TEST_P(BackendConformance, SealOpenRejectsTamperAndStrangers)
{
    ASSERT_TRUE(backend_->establishSession(0x0100, bytesOf("seed")));
    const Bytes plain = bytesOf("kv-cache block");
    const Bytes iv = ivOf(0x42);

    // No session: both directions refuse.
    EXPECT_FALSE(
        backend_->sealH2d(0x0200, iv, plain, nullptr).has_value());
    EXPECT_FALSE(
        backend_->openD2h(0x0200, iv, plain, Bytes(16, 0))
            .has_value());

    Bytes tag;
    auto sealed = backend_->sealH2d(0x0100, iv, plain, &tag);
    ASSERT_TRUE(sealed.has_value());

    Bytes flipped = *sealed;
    flipped[0] ^= 0x80;
    EXPECT_FALSE(
        backend_->openD2h(0x0100, iv, flipped, tag).has_value());

    Bytes bad_tag = tag;
    bad_tag[15] ^= 0x01;
    EXPECT_FALSE(
        backend_->openD2h(0x0100, iv, *sealed, bad_tag).has_value());

    // A second tenant's key must not open the first tenant's data.
    ASSERT_TRUE(backend_->establishSession(0x0200, bytesOf("other")));
    EXPECT_FALSE(
        backend_->openD2h(0x0200, iv, *sealed, tag).has_value());
}

TEST_P(BackendConformance, SameSecretReplaysDeterministically)
{
    auto a = makeBackend(GetParam());
    auto b = makeBackend(GetParam());
    ASSERT_TRUE(a->establishSession(0x0100, bytesOf("replay")));
    ASSERT_TRUE(b->establishSession(0x0100, bytesOf("replay")));

    const Bytes plain = bytesOf("same-seed payload");
    const Bytes iv = ivOf(0x43);
    Bytes tag_a, tag_b;
    auto sealed_a = a->sealH2d(0x0100, iv, plain, &tag_a);
    auto sealed_b = b->sealH2d(0x0100, iv, plain, &tag_b);
    ASSERT_TRUE(sealed_a.has_value());
    ASSERT_TRUE(sealed_b.has_value());
    EXPECT_EQ(*sealed_a, *sealed_b);
    EXPECT_EQ(tag_a, tag_b);

    // Cross-instance open: the key derivation is a pure function of
    // the session secret, not of instance identity.
    auto crossed = b->openD2h(0x0100, iv, *sealed_a, tag_a);
    ASSERT_TRUE(crossed.has_value());
    EXPECT_EQ(*crossed, plain);
}

TEST_P(BackendConformance, CostModelMatchesCanonicalTable)
{
    const CostModel expected = costModelFor(GetParam());
    const CostModel &actual = backend_->cost();
    EXPECT_EQ(actual.hostSealBytesPerSec, expected.hostSealBytesPerSec);
    EXPECT_EQ(actual.hostOpenBytesPerSec, expected.hostOpenBytesPerSec);
    EXPECT_EQ(actual.deviceCryptoBytesPerSec,
              expected.deviceCryptoBytesPerSec);
    EXPECT_EQ(actual.perTransferSetup, expected.perTransferSetup);
    EXPECT_EQ(actual.perRequestSetup, expected.perRequestSetup);
    EXPECT_EQ(actual.sessionEstablishTicks,
              expected.sessionEstablishTicks);
    EXPECT_EQ(actual.computeOverhead, expected.computeOverhead);
    EXPECT_GE(actual.computeOverhead, 1.0);

    // Delay hooks are pure functions of the model: zero rate means
    // a free hook; a non-zero rate converts bytes at that rate.
    if (expected.hostSealBytesPerSec == 0.0) {
        EXPECT_EQ(backend_->hostSealDelay(1 << 20), 0u);
    } else {
        Tick one_sec = backend_->hostSealDelay(
            static_cast<std::uint64_t>(expected.hostSealBytesPerSec));
        EXPECT_NEAR(static_cast<double>(one_sec),
                    static_cast<double>(kTicksPerSec),
                    static_cast<double>(kTicksPerSec) * 1e-9);
    }
    if (expected.deviceCryptoBytesPerSec == 0.0) {
        EXPECT_EQ(backend_->deviceCryptoDelay(1 << 20), 0u);
    }
    EXPECT_EQ(backend_->perTransferSetup(), expected.perTransferSetup);
    EXPECT_EQ(backend_->perRequestSetup(), expected.perRequestSetup);
}

TEST_P(BackendConformance, TcbDescriptorShape)
{
    const TcbDescriptor tcb = backend_->tcb();
    EXPECT_GT(tcb.addedTcbKloc, 0.0);
    EXPECT_STRNE(tcb.trustAnchor, "");
    if (GetParam() == Kind::CcaiSc) {
        EXPECT_TRUE(backend_->interposed());
        EXPECT_TRUE(backend_->filtersPackets());
        EXPECT_TRUE(tcb.perTlpCrypto);
        EXPECT_TRUE(tcb.legacyDeviceOk);
        EXPECT_TRUE(tcb.stackUnmodified);
    } else {
        // The rivals' whole point of comparison: no interposer, no
        // per-TLP filter, and they need a modified device or stack.
        EXPECT_FALSE(backend_->interposed());
        EXPECT_FALSE(backend_->filtersPackets());
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
