/**
 * @file
 * SIMD/table parity for AES-GCM: the stitched one-pass kernel must be
 * a bit-exact replacement for the table-driven portable path at every
 * width (128-bit AES-NI, 256-bit VAES, 512-bit VAES). Each hardware
 * tier the CPU supports is forced via the test override and run over
 * the known-answer corpus (NIST SP 800-38D vectors plus the
 * table-rewrite KAT pins, and lengths at every width's stride edges),
 * the in-place and out-of-place data-plane entry points, and the
 * segmented parallel seal; every ciphertext and tag must match the
 * table tier byte for byte, and tiers must interoperate (seal under
 * one, open under another). The tier rule itself is table-tested as
 * a pure function of the cpuid bits.
 *
 * The CCAI_NO_SIMD forced-fallback path is covered two ways: the
 * dispatch test below asserts the env var pins the tier to table
 * when set, and CI runs this whole binary a second time under
 * CCAI_NO_SIMD=1.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/bytes_util.hh"
#include "crypto/cpu_features.hh"
#include "crypto/gcm.hh"
#include "crypto/worker_pool.hh"
#include "sim/rng.hh"

using namespace ccai;
using crypto::AesGcm;
using crypto::SimdTier;

namespace
{

/** Same deterministic pattern the KAT vectors were generated from. */
Bytes
katPattern(size_t n, std::uint8_t seed)
{
    Bytes b(n);
    std::uint8_t x = seed;
    for (size_t i = 0; i < n; ++i) {
        x = static_cast<std::uint8_t>(x * 167 + 13);
        b[i] = x;
    }
    return b;
}

const Bytes kKatKey128 = fromHex("feffe9928665731c6d6a8f9467308308");
const Bytes kKatKey256 = fromHex("feffe9928665731c6d6a8f9467308308"
                                 "feffe9928665731c6d6a8f9467308308");
const Bytes kKatIv = fromHex("cafebabefacedbaddecaf888");

/** Can the forced tier's kernel actually run on this CPU? Each tier
 * needs everything the one below it needs. */
bool
tierSupported(SimdTier tier)
{
    return tier <= crypto::selectSimdTier(crypto::cpuFeatures());
}

const SimdTier kAllTiers[] = {SimdTier::kNone, SimdTier::kAesniClmul,
                              SimdTier::kVaes, SimdTier::kVaes512};

/** RAII tier override; clears back to the cpuid probe on exit. */
struct ForcedTier
{
    explicit ForcedTier(SimdTier tier)
    {
        crypto::overrideSimdTierForTest(static_cast<int>(tier));
    }
    ~ForcedTier() { crypto::overrideSimdTierForTest(-1); }
};

/**
 * Seal the full corpus under @p tier and fold every ciphertext and
 * tag into one transcript. Corpus spans: empty pt/AAD, sub-block,
 * exactly-block, ragged multi-block, the stitched kernel's stride
 * edges (stride - 1, stride, stride + 1 and 2 * stride + 15 for the
 * 128-byte stride of the 128-bit loop and the 256-byte stride of the
 * 256- and 512-bit loops), multi-batch (4 KiB+), and the 64 KiB
 * long-counter case — under both AES-128 and AES-256 — via seal(),
 * the in-place entry point and the out-of-place one (distinct source
 * and destination), plus the segmented parallel seal at widths 2 and
 * 4 for the larger sizes. Every sealed case is re-opened in place and
 * out of place to check the verify path under the same tier.
 */
Bytes
corpusTranscript(SimdTier tier)
{
    ForcedTier forced(tier);
    Bytes out;
    auto fold = [&out](const Bytes &b) {
        out.insert(out.end(), b.begin(), b.end());
    };

    struct Case
    {
        size_t ptLen;
        size_t aadLen;
    };
    const Case kCases[] = {
        {0, 0},     {0, 40},    {1, 0},     {15, 3},    {16, 0},
        {17, 37},   {33, 64},   {47, 37},   {127, 0},   {128, 13},
        {129, 0},   {255, 20},  {256, 0},   {257, 16},  {271, 5},
        {527, 0},   {1000, 5},  {4096, 0},  {4101, 48}, {65536, 0},
    };

    crypto::WorkerPool &pool = crypto::WorkerPool::shared();
    int keyNo = 0;
    for (const Bytes &key : {kKatKey128, kKatKey256}) {
        AesGcm gcm(key);
        ++keyNo;
        int caseNo = 0;
        for (const Case &c : kCases) {
            ++caseNo;
            SCOPED_TRACE("pt " + std::to_string(c.ptLen) + ", key " +
                         std::to_string(keyNo));
            auto seedOf = [&](int salt) {
                return static_cast<std::uint8_t>(keyNo * 50 +
                                                 caseNo * 3 + salt);
            };
            Bytes pt = katPattern(c.ptLen, seedOf(0));
            Bytes aad = katPattern(c.aadLen, seedOf(1));

            auto sealed = gcm.seal(kKatIv, pt, aad);
            fold(sealed.ciphertext);
            fold(sealed.tag);

            Bytes buf = pt;
            std::uint8_t tag[crypto::kGcmTagSize];
            gcm.sealInPlace(kKatIv, buf.data(), buf.size(),
                            aad.data(), aad.size(), tag);
            EXPECT_EQ(buf, sealed.ciphertext) << "in-place seal";
            fold(buf);
            fold(Bytes(tag, tag + sizeof(tag)));

            Bytes dst(pt.size(), 0xA5);
            std::uint8_t outTag[crypto::kGcmTagSize];
            gcm.seal(kKatIv, pt.data(), dst.data(), pt.size(),
                     aad.data(), aad.size(), outTag);
            EXPECT_EQ(dst, sealed.ciphertext) << "out-of-place seal";
            fold(Bytes(outTag, outTag + sizeof(outTag)));

            Bytes opened(pt.size(), 0x5A);
            EXPECT_TRUE(gcm.open(kKatIv, buf.data(), opened.data(),
                                 buf.size(), tag, aad.data(),
                                 aad.size()));
            EXPECT_EQ(opened, pt) << "out-of-place open";
            EXPECT_TRUE(gcm.openInPlace(kKatIv, buf.data(),
                                        buf.size(), tag, aad.data(),
                                        aad.size()));
            EXPECT_EQ(buf, pt) << "in-place open";

            if (c.ptLen >= 256) {
                for (int width : {2, 4}) {
                    Bytes seg = pt;
                    std::uint8_t segTag[crypto::kGcmTagSize];
                    gcm.seal(kKatIv, seg.data(), seg.data(),
                             seg.size(), aad.data(), aad.size(), segTag,
                             pool, width);
                    EXPECT_EQ(seg, sealed.ciphertext)
                        << "segmented seal, width " << width;
                    fold(Bytes(segTag, segTag + sizeof(segTag)));

                    Bytes segOut(pt.size(), 0x3C);
                    EXPECT_TRUE(gcm.open(kKatIv, seg.data(),
                                         segOut.data(), seg.size(),
                                         segTag, aad.data(), aad.size(),
                                         pool, width));
                    EXPECT_EQ(segOut, pt)
                        << "segmented open, width " << width;
                }
            }
        }
    }
    return out;
}

} // namespace

TEST(GcmSimdParity, AesniClmulMatchesTable)
{
    if (!tierSupported(SimdTier::kAesniClmul))
        GTEST_SKIP() << "CPU lacks AES-NI/PCLMULQDQ";
    Bytes table = corpusTranscript(SimdTier::kNone);
    Bytes simd = corpusTranscript(SimdTier::kAesniClmul);
    ASSERT_EQ(table.size(), simd.size());
    EXPECT_EQ(table, simd);
}

TEST(GcmSimdParity, VaesMatchesTable)
{
    if (!tierSupported(SimdTier::kVaes))
        GTEST_SKIP() << "CPU lacks VAES/VPCLMULQDQ";
    Bytes table = corpusTranscript(SimdTier::kNone);
    Bytes simd = corpusTranscript(SimdTier::kVaes);
    ASSERT_EQ(table.size(), simd.size());
    EXPECT_EQ(table, simd);
}

TEST(GcmSimdParity, Vaes512MatchesTable)
{
    if (!tierSupported(SimdTier::kVaes512))
        GTEST_SKIP() << "CPU or OS lacks AVX-512 VAES/VPCLMULQDQ";
    Bytes table = corpusTranscript(SimdTier::kNone);
    Bytes simd = corpusTranscript(SimdTier::kVaes512);
    ASSERT_EQ(table.size(), simd.size());
    EXPECT_EQ(table, simd);
}

// The SIMD kernels must hit the spec, not merely agree with the
// table path: pin the NIST SP 800-38D vectors under every tier the
// CPU can run.
TEST(GcmSimdParity, NistVectorsUnderEveryRunnableTier)
{
    for (SimdTier tier : kAllTiers) {
        if (!tierSupported(tier))
            continue;
        SCOPED_TRACE(crypto::simdTierName(tier));
        ForcedTier forced(tier);

        AesGcm zero(fromHex("00000000000000000000000000000000"));
        auto empty =
            zero.seal(fromHex("000000000000000000000000"), {});
        EXPECT_EQ(toHex(empty.tag),
                  "58e2fccefa7e3061367f1d57a4e7455a");

        AesGcm gcm(kKatKey128);
        Bytes pt = fromHex(
            "d9313225f88406e5a55909c5aff5269a"
            "86a7a9531534f7da2e4c303d8a318a72"
            "1c3c0c95956809532fcf0e2449a6b525"
            "b16aedf5aa0de657ba637b39");
        Bytes aad =
            fromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        auto sealed = gcm.seal(kKatIv, pt, aad);
        EXPECT_EQ(toHex(sealed.ciphertext),
                  "42831ec2217774244b7221b784d0d49c"
                  "e3aa212f2c02a4e035c17e2329aca12e"
                  "21d514b25466931c7d8f6a5aac84aa05"
                  "1ba30b396a0aac973d58e091");
        EXPECT_EQ(toHex(sealed.tag),
                  "5bc94fbc3221a5db94fae95ae7121a47");

        // Table-rewrite KAT pin with a ragged tail (47 bytes).
        Bytes kat = katPattern(47, 3);
        auto katSealed = gcm.seal(kKatIv, kat, katPattern(37, 4));
        EXPECT_EQ(toHex(katSealed.ciphertext),
                  "99e946d48b78c8a24c9022e1d9cea8c5"
                  "2716228fab7da919f9f6044d9136b1df"
                  "bf32f2941305a0ac707bee6d9749c5");
        EXPECT_EQ(toHex(katSealed.tag),
                  "9e59d1fa4fb0e92f1447afbf40806efb");
    }
}

// Ciphers built under different tiers must interoperate: the wire
// format carries no hint of which kernels produced it.
TEST(GcmSimdParity, TiersInteroperate)
{
    if (!tierSupported(SimdTier::kAesniClmul))
        GTEST_SKIP() << "CPU lacks AES-NI/PCLMULQDQ";
    sim::Rng rng(0x51D);
    Bytes key = rng.bytes(16);
    Bytes iv = rng.bytes(12);
    Bytes pt = rng.bytes(4097);
    Bytes aad = rng.bytes(29);

    for (SimdTier sealTier : kAllTiers) {
        for (SimdTier openTier : kAllTiers) {
            if (!tierSupported(sealTier) || !tierSupported(openTier))
                continue;
            crypto::overrideSimdTierForTest(
                static_cast<int>(sealTier));
            AesGcm sealer(key);
            auto sealed = sealer.seal(iv, pt, aad);
            crypto::overrideSimdTierForTest(
                static_cast<int>(openTier));
            AesGcm opener(key);
            auto opened =
                opener.open(iv, sealed.ciphertext, sealed.tag, aad);
            crypto::overrideSimdTierForTest(-1);
            ASSERT_TRUE(opened.has_value())
                << crypto::simdTierName(sealTier) << " -> "
                << crypto::simdTierName(openTier);
            EXPECT_EQ(*opened, pt);

            // Tampering is caught under every tier too.
            Bytes bad = sealed.ciphertext;
            bad[bad.size() / 2] ^= 0x01;
            crypto::overrideSimdTierForTest(
                static_cast<int>(openTier));
            AesGcm rejecter(key);
            EXPECT_FALSE(
                rejecter.open(iv, bad, sealed.tag, aad).has_value());
            crypto::overrideSimdTierForTest(-1);
        }
    }
}

// CCAI_NO_SIMD forces the table tier. The probe is cached per
// process, so this only asserts when the variable was set before
// the binary started — CI runs the whole binary a second time with
// CCAI_NO_SIMD=1 to take this branch (and to run every parity test
// above against a table-tier baseline environment).
TEST(GcmSimdDispatch, EnvVarForcesTableTier)
{
    const char *env = std::getenv("CCAI_NO_SIMD");
    if (!env || env[0] == '\0' ||
        (env[0] == '0' && env[1] == '\0'))
        GTEST_SKIP() << "CCAI_NO_SIMD not set";
    crypto::overrideSimdTierForTest(-1);
    EXPECT_EQ(crypto::simdTier(), SimdTier::kNone);
    // A cipher built in this environment still round-trips.
    AesGcm gcm(kKatKey128);
    auto sealed = gcm.seal(kKatIv, katPattern(100, 1));
    EXPECT_TRUE(
        gcm.open(kKatIv, sealed.ciphertext, sealed.tag).has_value());
}

// The tier rule is a pure function of the cpuid bits, so the cases
// no CI machine has are checked here rather than on hardware.
TEST(GcmSimdDispatch, TierFollowsCpuidTable)
{
    crypto::CpuFeatures full;
    full.ssse3 = full.sse41 = full.aesni = full.pclmul = true;
    full.avx2 = full.vaes = full.vpclmulqdq = true;
    full.avx512f = full.avx512bw = full.avx512vl = true;
    full.zmmState = true;

    struct Row
    {
        const char *what;
        void (*edit)(crypto::CpuFeatures &);
        SimdTier expect;
    };
    const Row kRows[] = {
        {"everything", [](crypto::CpuFeatures &) {},
         SimdTier::kVaes512},
        {"no AES-NI", [](crypto::CpuFeatures &f) { f.aesni = false; },
         SimdTier::kNone},
        {"no PCLMULQDQ",
         [](crypto::CpuFeatures &f) { f.pclmul = false; },
         SimdTier::kNone},
        {"no SSE4.1", [](crypto::CpuFeatures &f) { f.sse41 = false; },
         SimdTier::kNone},
        {"VAES without VPCLMULQDQ",
         [](crypto::CpuFeatures &f) { f.vpclmulqdq = false; },
         SimdTier::kAesniClmul},
        {"VAES without AVX2",
         [](crypto::CpuFeatures &f) { f.avx2 = false; },
         SimdTier::kAesniClmul},
        {"no VAES", [](crypto::CpuFeatures &f) { f.vaes = false; },
         SimdTier::kAesniClmul},
        {"AVX-512 without ZMM state",
         [](crypto::CpuFeatures &f) { f.zmmState = false; },
         SimdTier::kVaes},
        {"no AVX-512BW",
         [](crypto::CpuFeatures &f) { f.avx512bw = false; },
         SimdTier::kVaes},
        {"no AVX-512VL",
         [](crypto::CpuFeatures &f) { f.avx512vl = false; },
         SimdTier::kVaes},
        {"no AVX-512F",
         [](crypto::CpuFeatures &f) { f.avx512f = false; },
         SimdTier::kVaes},
        {"AVX2 machine without VAES (AVX-512 bits set)",
         [](crypto::CpuFeatures &f) {
             f.vaes = false;
             f.vpclmulqdq = false;
         },
         SimdTier::kAesniClmul},
    };
    for (const Row &row : kRows) {
        crypto::CpuFeatures f = full;
        row.edit(f);
        EXPECT_EQ(crypto::selectSimdTier(f), row.expect) << row.what;
    }
    EXPECT_EQ(crypto::selectSimdTier(crypto::CpuFeatures{}),
              SimdTier::kNone);
}

TEST(GcmSimdDispatch, OverrideClearsBackToProbe)
{
    crypto::overrideSimdTierForTest(-1);
    SimdTier probed = crypto::simdTier();
    {
        ForcedTier forced(SimdTier::kNone);
        EXPECT_EQ(crypto::simdTier(), SimdTier::kNone);
    }
    EXPECT_EQ(crypto::simdTier(), probed);
    EXPECT_STREQ(crypto::simdTierName(SimdTier::kNone), "table");
    EXPECT_STREQ(crypto::simdTierName(SimdTier::kVaes512), "vaes512");
}
