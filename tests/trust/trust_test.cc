/**
 * @file
 * Trust-establishment tests (paper §6): PCR extend semantics, HRoT
 * quotes, secure boot with tamper detection, the four-step remote
 * attestation protocol, workload key management with IV-exhaustion
 * rotation, and chassis sealing.
 */

#include <gtest/gtest.h>

#include "trust/attestation.hh"
#include "trust/key_manager.hh"
#include "trust/sealing.hh"
#include "trust/secure_boot.hh"

using namespace ccai;
using namespace ccai::trust;

// ---------------------------------------------------------------------
// PCR bank
// ---------------------------------------------------------------------

TEST(PcrBank, StartsZeroed)
{
    PcrBank bank;
    EXPECT_EQ(bank.value(0), Bytes(32, 0));
}

TEST(PcrBank, ExtendChangesValueDeterministically)
{
    PcrBank a, b;
    Bytes digest = crypto::Sha256::digest(std::string("component"));
    a.extend(3, digest, "c");
    b.extend(3, digest, "c");
    EXPECT_EQ(a.value(3), b.value(3));
    EXPECT_NE(a.value(3), Bytes(32, 0));
}

TEST(PcrBank, ExtendOrderMatters)
{
    PcrBank a, b;
    Bytes d1 = crypto::Sha256::digest(std::string("one"));
    Bytes d2 = crypto::Sha256::digest(std::string("two"));
    a.extend(0, d1, "1");
    a.extend(0, d2, "2");
    b.extend(0, d2, "2");
    b.extend(0, d1, "1");
    EXPECT_NE(a.value(0), b.value(0));
}

TEST(PcrBank, ReplayMatchesLog)
{
    PcrBank bank;
    bank.extend(0, crypto::Sha256::digest(std::string("a")), "a");
    bank.extend(5, crypto::Sha256::digest(std::string("b")), "b");
    bank.extend(0, crypto::Sha256::digest(std::string("c")), "c");
    EXPECT_TRUE(bank.replayMatches());
    EXPECT_EQ(bank.eventLog().size(), 3u);
}

TEST(PcrBank, CompositeDigestSelectionSensitive)
{
    PcrBank bank;
    bank.extend(1, crypto::Sha256::digest(std::string("x")), "x");
    EXPECT_NE(bank.compositeDigest({0, 1}), bank.compositeDigest({1}));
    EXPECT_NE(bank.compositeDigest({0, 1}),
              bank.compositeDigest({1, 0}));
}

// ---------------------------------------------------------------------
// HRoT / quotes
// ---------------------------------------------------------------------

TEST(Hrot, EkCertificateChainsToCa)
{
    sim::Rng rng(1);
    RootCa ca(rng);
    HrotBlade blade("blade", ca, rng);
    EXPECT_TRUE(ca.verify(blade.ekCertificate()));
}

TEST(Hrot, ForeignCaRejectsEk)
{
    sim::Rng rng(2);
    RootCa ca(rng), other(rng);
    HrotBlade blade("blade", ca, rng);
    EXPECT_FALSE(other.verify(blade.ekCertificate()));
}

TEST(Hrot, AkFreshPerBoot)
{
    sim::Rng rng(3);
    RootCa ca(rng);
    HrotBlade blade("blade", ca, rng);
    blade.boot(rng);
    crypto::BigInt ak1 = blade.akPublic();
    blade.boot(rng);
    EXPECT_NE(blade.akPublic(), ak1);
}

TEST(Hrot, QuoteVerifies)
{
    sim::Rng rng(4);
    RootCa ca(rng);
    HrotBlade blade("blade", ca, rng);
    blade.boot(rng);
    blade.pcrs().extend(8, crypto::Sha256::digest(std::string("fw")),
                        "fw");
    Bytes nonce = rng.bytes(32);
    Quote q = blade.quote(nonce, {8, 9}, rng);
    EXPECT_TRUE(HrotBlade::verifyQuote(q, blade.akPublic()));
    EXPECT_EQ(q.pcrValues[0], blade.pcrs().value(8));
}

TEST(Hrot, TamperedQuoteValuesFail)
{
    sim::Rng rng(5);
    RootCa ca(rng);
    HrotBlade blade("blade", ca, rng);
    blade.boot(rng);
    Quote q = blade.quote(rng.bytes(32), {0}, rng);
    q.pcrValues[0][0] ^= 1;
    EXPECT_FALSE(HrotBlade::verifyQuote(q, blade.akPublic()));
}

TEST(Hrot, QuoteNonceSubstitutionFails)
{
    sim::Rng rng(6);
    RootCa ca(rng);
    HrotBlade blade("blade", ca, rng);
    blade.boot(rng);
    Quote q = blade.quote(rng.bytes(32), {0}, rng);
    q.nonce = rng.bytes(32); // attacker swaps the nonce
    EXPECT_FALSE(HrotBlade::verifyQuote(q, blade.akPublic()));
}

// ---------------------------------------------------------------------
// Secure boot
// ---------------------------------------------------------------------

namespace
{

struct BootRig
{
    sim::Rng rng{7};
    RootCa ca{rng};
    HrotBlade blade{"blade", ca, rng};
    crypto::AesGcm flashKey{Bytes(16, 0x42)};
    crypto::Drbg drbg{Bytes{1, 2, 3}, "boot-rig"};
    ExternalFlash flash;
    Bytes bitstream = rng.bytes(2048);
    Bytes firmware = rng.bytes(1024);

    BootRig()
    {
        blade.boot(rng);
        flash.store("bitstream", pcridx::kScBitstream, bitstream,
                    flashKey, drbg);
        flash.store("firmware", pcridx::kScFirmware, firmware,
                    flashKey, drbg);
    }

    SecureBoot
    makeBoot()
    {
        SecureBoot boot(blade, flashKey);
        boot.addGoldenDigest("bitstream",
                             crypto::Sha256::digest(bitstream));
        boot.addGoldenDigest("firmware",
                             crypto::Sha256::digest(firmware));
        return boot;
    }
};

} // namespace

TEST(SecureBoot, HappyPathLoadsAndMeasures)
{
    BootRig rig;
    BootResult result = rig.makeBoot().boot(rig.flash);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.loadedComponents.size(), 2u);
    EXPECT_NE(rig.blade.pcrs().value(pcridx::kScBitstream),
              Bytes(32, 0));
    EXPECT_NE(rig.blade.pcrs().value(pcridx::kScFirmware),
              Bytes(32, 0));
}

TEST(SecureBoot, TamperedFlashRejected)
{
    BootRig rig;
    rig.flash.tamper("bitstream");
    BootResult result = rig.makeBoot().boot(rig.flash);
    EXPECT_FALSE(result.success);
    EXPECT_NE(result.failure.find("bitstream"), std::string::npos);
    // Nothing after the failed component loaded.
    EXPECT_TRUE(result.loadedComponents.empty());
}

TEST(SecureBoot, GoldenMismatchRejected)
{
    BootRig rig;
    SecureBoot boot(rig.blade, rig.flashKey);
    boot.addGoldenDigest("bitstream",
                         crypto::Sha256::digest(std::string("other")));
    BootResult result = boot.boot(rig.flash);
    EXPECT_FALSE(result.success);
    EXPECT_NE(result.failure.find("measurement mismatch"),
              std::string::npos);
}

TEST(SecureBoot, WrongFlashKeyRejected)
{
    BootRig rig;
    crypto::AesGcm wrong_key{Bytes(16, 0x43)};
    SecureBoot boot(rig.blade, wrong_key);
    EXPECT_FALSE(boot.boot(rig.flash).success);
}

// ---------------------------------------------------------------------
// Remote attestation (Figure 6)
// ---------------------------------------------------------------------

namespace
{

struct AttestRig
{
    sim::Rng rng{8};
    RootCa ca{rng};
    HrotBlade cpu{"cpu", ca, rng};
    HrotBlade blade{"blade", ca, rng};

    AttestRig()
    {
        cpu.boot(rng);
        blade.boot(rng);
        cpu.pcrs().extend(pcridx::kTvmImage,
                          crypto::Sha256::digest(std::string("tvm")),
                          "tvm");
        blade.pcrs().extend(
            pcridx::kScBitstream,
            crypto::Sha256::digest(std::string("bits")), "bits");
    }
};

} // namespace

TEST(Attestation, FullProtocolSucceeds)
{
    AttestRig rig;
    AttestationResponder responder(rig.cpu, rig.blade, rig.rng);
    AttestationVerifier verifier(rig.ca, rig.rng);

    // Step 1: session key agreement.
    EXPECT_EQ(verifier.sessionSecret(responder.dhPublic()),
              responder.sessionSecret(verifier.dhPublic()));

    // Steps 2-4. The goldens replay the rig's release measurements;
    // each HRoT's quote is checked against its own bank.
    PcrGoldens goldens;
    goldens.cpuHrot.extend(pcridx::kTvmImage,
                           crypto::Sha256::digest(std::string("tvm")),
                           "tvm");
    goldens.blade.extend(pcridx::kScBitstream,
                         crypto::Sha256::digest(std::string("bits")),
                         "bits");
    verifier.expectGoldens(goldens);
    Challenge c = verifier.makeChallenge(
        0, {pcridx::kTvmImage, pcridx::kScBitstream});
    AttestationReport report = responder.respond(c);
    VerifyResult vr = verifier.verifyReport(report, c, responder);
    EXPECT_TRUE(vr.ok) << vr.reason;
}

TEST(Attestation, MatchingGoldensVerifyEndToEnd)
{
    AttestRig rig;
    AttestationResponder responder(rig.cpu, rig.blade, rig.rng);
    AttestationVerifier verifier(rig.ca, rig.rng);

    // Select a PCR where both HRoTs hold the same (zero-extended)
    // value so the full report verifies.
    Challenge c = verifier.makeChallenge(0, {2});
    AttestationReport report = responder.respond(c);
    VerifyResult vr = verifier.verifyReport(report, c, responder);
    EXPECT_TRUE(vr.ok) << vr.reason;
}

TEST(Attestation, ReplayedReportRejected)
{
    AttestRig rig;
    AttestationResponder responder(rig.cpu, rig.blade, rig.rng);
    AttestationVerifier verifier(rig.ca, rig.rng);

    Challenge c1 = verifier.makeChallenge(0, {2});
    AttestationReport old_report = responder.respond(c1);

    // A fresh challenge must not accept the recorded report.
    Challenge c2 = verifier.makeChallenge(0, {2});
    VerifyResult vr = verifier.verifyReport(old_report, c2, responder);
    EXPECT_FALSE(vr.ok);
    EXPECT_NE(vr.reason.find("nonce"), std::string::npos);
}

TEST(Attestation, WrongPcrValueRejected)
{
    AttestRig rig;
    AttestationResponder responder(rig.cpu, rig.blade, rig.rng);
    AttestationVerifier verifier(rig.ca, rig.rng);
    PcrGoldens goldens;
    goldens.blade.extend(2, crypto::Sha256::digest(std::string("evil")),
                         "evil");
    verifier.expectGoldens(goldens);

    Challenge c = verifier.makeChallenge(0, {2});
    AttestationReport report = responder.respond(c);
    VerifyResult vr = verifier.verifyReport(report, c, responder);
    EXPECT_FALSE(vr.ok);
    EXPECT_NE(vr.reason.find("golden"), std::string::npos);
}

TEST(Attestation, ForgedQuoteRejected)
{
    AttestRig rig;
    AttestationResponder responder(rig.cpu, rig.blade, rig.rng);
    AttestationVerifier verifier(rig.ca, rig.rng);

    Challenge c = verifier.makeChallenge(0, {2});
    AttestationReport report = responder.respond(c);
    report.bladeQuote.pcrValues[0] =
        crypto::Sha256::digest(std::string("forged"));
    VerifyResult vr = verifier.verifyReport(report, c, responder);
    EXPECT_FALSE(vr.ok);
}

TEST(Attestation, QuoteMissingPcrValueRejected)
{
    AttestRig rig;
    AttestationResponder responder(rig.cpu, rig.blade, rig.rng);
    AttestationVerifier verifier(rig.ca, rig.rng);

    Challenge c = verifier.makeChallenge(0, {2, 3});
    AttestationReport report = responder.respond(c);
    report.cpuQuote.pcrValues.pop_back();
    VerifyResult vr = verifier.verifyReport(report, c, responder);
    EXPECT_FALSE(vr.ok);
    EXPECT_NE(vr.reason.find("quote signature"), std::string::npos);
}

// ---------------------------------------------------------------------
// Workload key management
// ---------------------------------------------------------------------

TEST(KeyManager, BothSidesDeriveSameKeys)
{
    Bytes secret(32, 0x11);
    WorkloadKeyManager adaptor_side(secret);
    WorkloadKeyManager sc_side(secret);
    EXPECT_EQ(adaptor_side.key(StreamDir::HostToDevice),
              sc_side.key(StreamDir::HostToDevice));
    EXPECT_EQ(adaptor_side.key(StreamDir::DeviceToHost),
              sc_side.key(StreamDir::DeviceToHost));
}

TEST(KeyManager, DirectionsHaveDistinctKeys)
{
    WorkloadKeyManager km(Bytes(32, 0x22));
    EXPECT_NE(km.key(StreamDir::HostToDevice),
              km.key(StreamDir::DeviceToHost));
}

TEST(KeyManager, IvsNeverRepeatWithinEpoch)
{
    WorkloadKeyManager km(Bytes(32, 0x33));
    std::set<Bytes> seen;
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(
            seen.insert(km.nextIv(StreamDir::HostToDevice)).second);
}

TEST(KeyManager, IvExhaustionRotatesKey)
{
    WorkloadKeyManager km(Bytes(32, 0x44), /*ivExhaustionLimit=*/4);
    Bytes epoch0_key = km.key(StreamDir::HostToDevice);
    for (int i = 0; i < 4; ++i)
        km.nextIv(StreamDir::HostToDevice);
    EXPECT_EQ(km.epochId(StreamDir::HostToDevice), 0u);
    km.nextIv(StreamDir::HostToDevice); // 5th IV triggers rotation
    EXPECT_EQ(km.epochId(StreamDir::HostToDevice), 1u);
    EXPECT_NE(km.key(StreamDir::HostToDevice), epoch0_key);
    // The other direction is unaffected.
    EXPECT_EQ(km.epochId(StreamDir::DeviceToHost), 0u);
}

TEST(KeyManager, PastEpochKeysReconstructible)
{
    WorkloadKeyManager km(Bytes(32, 0x55), 2);
    Bytes epoch0 = km.key(StreamDir::DeviceToHost);
    for (int i = 0; i < 3; ++i)
        km.nextIv(StreamDir::DeviceToHost);
    EXPECT_EQ(km.epochId(StreamDir::DeviceToHost), 1u);
    EXPECT_EQ(km.keyForEpoch(StreamDir::DeviceToHost, 0), epoch0);
    EXPECT_EQ(km.keyForEpoch(StreamDir::DeviceToHost, 1),
              km.key(StreamDir::DeviceToHost));
}

TEST(KeyManager, CrossEndpointDecryptionAcrossEpochs)
{
    Bytes secret(32, 0x66);
    WorkloadKeyManager producer(secret, 2);
    WorkloadKeyManager consumer(secret);

    // Producer rotates, then seals under the new epoch.
    producer.nextIv(StreamDir::DeviceToHost);
    producer.nextIv(StreamDir::DeviceToHost);
    Bytes iv = producer.nextIv(StreamDir::DeviceToHost); // epoch 1
    std::uint32_t epoch = producer.epochId(StreamDir::DeviceToHost);
    ASSERT_EQ(epoch, 1u);

    Bytes pt = {1, 2, 3, 4};
    auto sealed =
        producer.cipher(StreamDir::DeviceToHost).seal(iv, pt);
    // Consumer reconstructs epoch-1 key from the record's epoch id.
    auto opened =
        consumer.cipherForEpoch(StreamDir::DeviceToHost, epoch)
            .open(iv, sealed.ciphertext, sealed.tag);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, pt);
}

TEST(KeyManager, DestroyZeroizes)
{
    WorkloadKeyManager km(Bytes(32, 0x77));
    km.destroy();
    EXPECT_TRUE(km.destroyed());
    EXPECT_DEATH(km.nextIv(StreamDir::HostToDevice), "destroy");
}

// ---------------------------------------------------------------------
// Cipher cache
// ---------------------------------------------------------------------

TEST(KeyManager, CachedCipherMatchesFreshDerivation)
{
    WorkloadKeyManager km(Bytes(32, 0x88));
    Bytes iv = km.nextIv(StreamDir::HostToDevice);
    Bytes pt = {9, 8, 7, 6, 5};

    auto from_cache =
        km.cipherCached(StreamDir::HostToDevice, 0).seal(iv, pt);
    auto fresh =
        km.cipherForEpoch(StreamDir::HostToDevice, 0).seal(iv, pt);
    EXPECT_EQ(from_cache.ciphertext, fresh.ciphertext);
    EXPECT_EQ(from_cache.tag, fresh.tag);
}

TEST(KeyManager, CipherCacheReusedWithinEpoch)
{
    WorkloadKeyManager km(Bytes(32, 0x99));
    EXPECT_EQ(km.cachedCipherCount(), 0u);
    const crypto::AesGcm &a = km.cipherCached(StreamDir::HostToDevice, 0);
    const crypto::AesGcm &b = km.cipherCached(StreamDir::HostToDevice, 0);
    EXPECT_EQ(&a, &b); // same entry, no re-derivation
    EXPECT_EQ(km.cachedCipherCount(), 1u);
    km.cipherCached(StreamDir::DeviceToHost, 0);
    EXPECT_EQ(km.cachedCipherCount(), 2u);
}

TEST(KeyManager, RotationInvalidatesStaleCacheEntries)
{
    // Tiny IV limit: every nextIv() call after the first two rotates.
    WorkloadKeyManager km(Bytes(32, 0xaa), /*ivExhaustionLimit=*/2);

    // Seal a chunk under epoch 0 via the cache.
    Bytes iv0 = km.nextIv(StreamDir::DeviceToHost);
    auto sealed =
        km.cipherCached(StreamDir::DeviceToHost, 0).seal(iv0, {1, 2, 3});
    EXPECT_EQ(km.cachedCipherCount(), 1u);

    // Rotate well past the cache retention window.
    while (km.epochId(StreamDir::DeviceToHost) < 5)
        km.nextIv(StreamDir::DeviceToHost);

    // The epoch-0 entry has been invalidated: only epochs within
    // the retention window may remain cached.
    std::uint32_t cur = km.epochId(StreamDir::DeviceToHost);
    km.cipherCached(StreamDir::DeviceToHost, cur);
    EXPECT_LE(km.cachedCipherCount(), 3u);

    // A past-epoch chunk still decrypts: the cache re-derives the
    // evicted epoch statelessly on demand.
    auto opened = km.cipherCached(StreamDir::DeviceToHost, 0)
                      .open(iv0, sealed.ciphertext, sealed.tag);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, Bytes({1, 2, 3}));
}

TEST(KeyManager, RotationOnlyEvictsOwnDirection)
{
    WorkloadKeyManager km(Bytes(32, 0xbb), /*ivExhaustionLimit=*/2);
    km.cipherCached(StreamDir::HostToDevice, 0);
    EXPECT_EQ(km.cachedCipherCount(), 1u);

    // Rotate the *other* direction far enough to trigger eviction.
    while (km.epochId(StreamDir::DeviceToHost) < 5)
        km.nextIv(StreamDir::DeviceToHost);
    km.cipherCached(StreamDir::DeviceToHost, 5);

    // H2D epoch-0 entry survived D2H rotations.
    EXPECT_EQ(km.cachedCipherCount(), 2u);
}

TEST(KeyManager, DestroyClearsCipherCache)
{
    WorkloadKeyManager km(Bytes(32, 0xcc));
    km.cipherCached(StreamDir::HostToDevice, 0);
    km.cipherCached(StreamDir::DeviceToHost, 0);
    EXPECT_EQ(km.cachedCipherCount(), 2u);
    km.destroy();
    EXPECT_EQ(km.cachedCipherCount(), 0u);
    EXPECT_DEATH(km.cipherCached(StreamDir::HostToDevice, 0),
                 "destroy");
}

// ---------------------------------------------------------------------
// Sealing
// ---------------------------------------------------------------------

TEST(Sealing, NominalChassisStaysSealed)
{
    sim::System sys;
    sim::Rng rng(9);
    RootCa ca(rng);
    HrotBlade blade("blade", ca, rng);
    blade.boot(rng);
    ChassisSealing sealing(sys, "seal", blade);
    sealing.addSensor({"pressure", SensorKind::Pressure, 90, 110, 100});
    sealing.pollOnce();
    EXPECT_FALSE(sealing.tamperDetected());
    Bytes sealed_pcr = blade.pcrs().value(pcridx::kSealingStatus);
    EXPECT_NE(sealed_pcr, Bytes(32, 0));

    // A second nominal poll does not extend the PCR again.
    sealing.pollOnce();
    EXPECT_EQ(blade.pcrs().value(pcridx::kSealingStatus), sealed_pcr);
}

TEST(Sealing, PhysicalTamperDetectedAndMeasured)
{
    sim::System sys;
    sim::Rng rng(10);
    RootCa ca(rng);
    HrotBlade blade("blade", ca, rng);
    blade.boot(rng);
    ChassisSealing sealing(sys, "seal", blade);
    size_t pressure =
        sealing.addSensor({"pressure", SensorKind::Pressure, 90, 110,
                           100});
    sealing.pollOnce();
    Bytes before = blade.pcrs().value(pcridx::kSealingStatus);

    // Opening the chassis drops the pressure.
    sealing.injectReading(pressure, 50.0);
    sealing.pollOnce();
    EXPECT_TRUE(sealing.tamperDetected());
    EXPECT_NE(blade.pcrs().value(pcridx::kSealingStatus), before);
}

TEST(Sealing, PeriodicPollingRunsOnEventQueue)
{
    sim::System sys;
    sim::Rng rng(11);
    RootCa ca(rng);
    HrotBlade blade("blade", ca, rng);
    blade.boot(rng);
    ChassisSealing sealing(sys, "seal", blade, 1 * kTicksPerMs);
    size_t s = sealing.addSensor(
        {"intrusion", SensorKind::Intrusion, 0, 0.5, 0});
    sealing.start();

    // Tamper after some time; the next poll must catch it.
    sys.eventq().schedule(5 * kTicksPerMs, [&] {
        sealing.injectReading(s, 1.0);
    });
    sys.eventq().runUntil(10 * kTicksPerMs);
    EXPECT_TRUE(sealing.tamperDetected());
}
