/**
 * @file
 * AES-GCM tests against NIST GCM test vectors (SP 800-38D validation
 * suite) plus tamper-detection and AAD-binding properties.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/bytes_util.hh"
#include "crypto/cpu_features.hh"
#include "crypto/gcm.hh"
#include "crypto/sha256.hh"
#include "crypto/worker_pool.hh"
#include "sim/rng.hh"

using namespace ccai;
using crypto::AesGcm;

// NIST gcmEncryptExtIV128 test case: zero key, zero IV, empty
// plaintext -> tag only.
TEST(AesGcm, NistEmptyPlaintext)
{
    AesGcm gcm(fromHex("00000000000000000000000000000000"));
    auto sealed = gcm.seal(fromHex("000000000000000000000000"), {});
    EXPECT_TRUE(sealed.ciphertext.empty());
    EXPECT_EQ(toHex(sealed.tag), "58e2fccefa7e3061367f1d57a4e7455a");
}

// NIST test case: zero key/IV, one zero block.
TEST(AesGcm, NistSingleZeroBlock)
{
    AesGcm gcm(fromHex("00000000000000000000000000000000"));
    auto sealed = gcm.seal(fromHex("000000000000000000000000"),
                           Bytes(16, 0));
    EXPECT_EQ(toHex(sealed.ciphertext),
              "0388dace60b6a392f328c2b971b2fe78");
    EXPECT_EQ(toHex(sealed.tag), "ab6e47d42cec13bdf53a67b21257bddf");
}

// NIST test case 3: 4-block plaintext, no AAD.
TEST(AesGcm, NistFourBlocks)
{
    AesGcm gcm(fromHex("feffe9928665731c6d6a8f9467308308"));
    Bytes iv = fromHex("cafebabefacedbaddecaf888");
    Bytes pt = fromHex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b391aafd255");
    auto sealed = gcm.seal(iv, pt);
    EXPECT_EQ(toHex(sealed.ciphertext),
              "42831ec2217774244b7221b784d0d49c"
              "e3aa212f2c02a4e035c17e2329aca12e"
              "21d514b25466931c7d8f6a5aac84aa05"
              "1ba30b396a0aac973d58e091473f5985");
    EXPECT_EQ(toHex(sealed.tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
}

// NIST test case 4: with AAD and truncated plaintext.
TEST(AesGcm, NistWithAad)
{
    AesGcm gcm(fromHex("feffe9928665731c6d6a8f9467308308"));
    Bytes iv = fromHex("cafebabefacedbaddecaf888");
    Bytes pt = fromHex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b39");
    Bytes aad = fromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    auto sealed = gcm.seal(iv, pt, aad);
    EXPECT_EQ(toHex(sealed.ciphertext),
              "42831ec2217774244b7221b784d0d49c"
              "e3aa212f2c02a4e035c17e2329aca12e"
              "21d514b25466931c7d8f6a5aac84aa05"
              "1ba30b396a0aac973d58e091");
    EXPECT_EQ(toHex(sealed.tag), "5bc94fbc3221a5db94fae95ae7121a47");

    auto opened = gcm.open(iv, sealed.ciphertext, sealed.tag, aad);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, pt);
}

TEST(AesGcm, RoundTripVariousSizes)
{
    sim::Rng rng(7);
    AesGcm gcm(rng.bytes(16));
    for (size_t size : {0ul, 1ul, 15ul, 16ul, 17ul, 255ul, 256ul,
                        1000ul, 4096ul}) {
        Bytes iv = rng.bytes(12);
        Bytes pt = rng.bytes(size);
        auto sealed = gcm.seal(iv, pt);
        auto opened = gcm.open(iv, sealed.ciphertext, sealed.tag);
        ASSERT_TRUE(opened.has_value()) << "size " << size;
        EXPECT_EQ(*opened, pt) << "size " << size;
    }
}

TEST(AesGcm, TamperedCiphertextRejected)
{
    sim::Rng rng(8);
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    auto sealed = gcm.seal(iv, rng.bytes(100));
    sealed.ciphertext[50] ^= 0x01;
    EXPECT_FALSE(gcm.open(iv, sealed.ciphertext, sealed.tag));
}

TEST(AesGcm, TamperedTagRejected)
{
    sim::Rng rng(9);
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    auto sealed = gcm.seal(iv, rng.bytes(64));
    sealed.tag[0] ^= 0x80;
    EXPECT_FALSE(gcm.open(iv, sealed.ciphertext, sealed.tag));
}

TEST(AesGcm, WrongAadRejected)
{
    sim::Rng rng(10);
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    Bytes aad = {1, 2, 3};
    auto sealed = gcm.seal(iv, rng.bytes(64), aad);
    EXPECT_TRUE(gcm.open(iv, sealed.ciphertext, sealed.tag, aad));
    EXPECT_FALSE(gcm.open(iv, sealed.ciphertext, sealed.tag, {}));
    EXPECT_FALSE(
        gcm.open(iv, sealed.ciphertext, sealed.tag, {1, 2, 4}));
}

TEST(AesGcm, WrongIvRejected)
{
    sim::Rng rng(11);
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    auto sealed = gcm.seal(iv, rng.bytes(64));
    Bytes other_iv = iv;
    other_iv[11] ^= 1;
    EXPECT_FALSE(gcm.open(other_iv, sealed.ciphertext, sealed.tag));
}

TEST(AesGcm, DistinctIvsGiveDistinctCiphertext)
{
    sim::Rng rng(12);
    AesGcm gcm(rng.bytes(16));
    Bytes pt = rng.bytes(32);
    auto s1 = gcm.seal(fromHex("000000000000000000000001"), pt);
    auto s2 = gcm.seal(fromHex("000000000000000000000002"), pt);
    EXPECT_NE(s1.ciphertext, s2.ciphertext);
    EXPECT_NE(s1.tag, s2.tag);
}

// ---------------------------------------------------------------------
// Known-answer tests for the table-driven rewrite's edge cases.
// The NIST-style vectors below were generated from the SP 800-38D
// reference implementation this repo shipped before the table-driven
// rewrite (itself validated against the official NIST vectors above),
// so they pin the bitwise-exact GCM outputs for: multi-block AAD,
// payload lengths that are not a multiple of 16, payloads spanning
// hundreds/thousands of counter increments, and empty pt/AAD
// combinations. Long ciphertexts are pinned by SHA-256.
// ---------------------------------------------------------------------

namespace
{

// Deterministic byte pattern used when the vectors were generated.
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
const Bytes kKatIv = fromHex("cafebabefacedbaddecaf888");

} // namespace

// NIST gcmEncryptExtIV256: zero key, zero IV, empty plaintext.
TEST(AesGcmKat, Nist256EmptyPlaintext)
{
    AesGcm gcm(Bytes(32, 0));
    auto sealed = gcm.seal(fromHex("000000000000000000000000"), {});
    EXPECT_TRUE(sealed.ciphertext.empty());
    EXPECT_EQ(toHex(sealed.tag), "530f8afbc74536b9a963b4f1c4cb738b");
}

// NIST gcmEncryptExtIV256: zero key/IV, one zero block.
TEST(AesGcmKat, Nist256SingleZeroBlock)
{
    AesGcm gcm(Bytes(32, 0));
    auto sealed = gcm.seal(fromHex("000000000000000000000000"),
                           Bytes(16, 0));
    EXPECT_EQ(toHex(sealed.ciphertext),
              "cea7403d4d606b6e074ec5d3baf39d18");
    EXPECT_EQ(toHex(sealed.tag), "d0d1c8a799996bf0265b98b5d48ab919");
}

// Four full AAD blocks (64 bytes), 33-byte payload (crosses one
// counter block plus one byte).
TEST(AesGcmKat, MultiBlockAad)
{
    AesGcm gcm(kKatKey128);
    Bytes pt = katPattern(33, 1);
    Bytes aad = katPattern(64, 2);
    auto sealed = gcm.seal(kKatIv, pt, aad);
    EXPECT_EQ(toHex(sealed.ciphertext),
              "2fcbd0961d1a7e203a723423cfecdec7"
              "9134b44d3d9f1f9b0f94120f871447dd09");
    EXPECT_EQ(toHex(sealed.tag), "276c1bc0889ba3d500b2b028c0cfe8f5");
    auto opened = gcm.open(kKatIv, sealed.ciphertext, sealed.tag, aad);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, pt);
}

// Neither AAD (37 bytes) nor payload (47 bytes) block-aligned.
TEST(AesGcmKat, OddAadOddPayload)
{
    AesGcm gcm(kKatKey128);
    Bytes pt = katPattern(47, 3);
    Bytes aad = katPattern(37, 4);
    auto sealed = gcm.seal(kKatIv, pt, aad);
    EXPECT_EQ(toHex(sealed.ciphertext),
              "99e946d48b78c8a24c9022e1d9cea8c5"
              "2716228fab7da919f9f6044d9136b1df"
              "bf32f2941305a0ac707bee6d9749c5");
    EXPECT_EQ(toHex(sealed.tag), "9e59d1fa4fb0e92f1447afbf40806efb");
}

// 4 KiB payload: 256 counter blocks, exercising the batched CTR
// path across several keystream batches.
TEST(AesGcmKat, FourKiBPayload)
{
    AesGcm gcm(kKatKey128);
    auto sealed = gcm.seal(kKatIv, katPattern(4096, 5));
    EXPECT_EQ(toHex(crypto::Sha256::digest(sealed.ciphertext)),
              "965162506af7d3201bdf720c6d74c3e1"
              "88cb2815923a46349703d380a5d018db");
    EXPECT_EQ(toHex(sealed.tag), "867f37e300f42e27a6ae982b7494dfb2");
}

// 4 KiB + 5 bytes with multi-block AAD: a ragged tail after many
// full batches.
TEST(AesGcmKat, FourKiBPlusRaggedTailWithAad)
{
    AesGcm gcm(kKatKey128);
    auto sealed =
        gcm.seal(kKatIv, katPattern(4101, 6), katPattern(48, 7));
    EXPECT_EQ(toHex(crypto::Sha256::digest(sealed.ciphertext)),
              "71a297df280a4d11835730f1a9d510dc"
              "3d50909817c192910abe17739cbadc53");
    EXPECT_EQ(toHex(sealed.tag), "57c62c63cd01c840f65acb09fddf7af7");
}

// 64 KiB payload: 4096 counter increments.
TEST(AesGcmKat, SixtyFourKiBPayload)
{
    AesGcm gcm(kKatKey128);
    auto sealed = gcm.seal(kKatIv, katPattern(65536, 8));
    EXPECT_EQ(toHex(crypto::Sha256::digest(sealed.ciphertext)),
              "9541d6f5ef69a4a7bb2953c17ced8c5b"
              "468f8d26e5f4fafc81f30de431ef3226");
    EXPECT_EQ(toHex(sealed.tag), "487e8b0b154773fa77576fc5dd088a43");
}

// Empty plaintext with multi-block AAD: tag-only operation.
TEST(AesGcmKat, EmptyPlaintextWithAad)
{
    AesGcm gcm(kKatKey128);
    Bytes aad = katPattern(40, 9);
    auto sealed = gcm.seal(kKatIv, {}, aad);
    EXPECT_TRUE(sealed.ciphertext.empty());
    EXPECT_EQ(toHex(sealed.tag), "c9bf81fc9e5f9fbfc82f4dc2c81abaf7");
    EXPECT_TRUE(gcm.open(kKatIv, {}, sealed.tag, aad).has_value());
    EXPECT_FALSE(gcm.open(kKatIv, {}, sealed.tag, {}).has_value());
}

// Empty plaintext and empty AAD under a non-zero key/IV.
TEST(AesGcmKat, EmptyEverything)
{
    AesGcm gcm(kKatKey128);
    auto sealed = gcm.seal(kKatIv, {}, {});
    EXPECT_TRUE(sealed.ciphertext.empty());
    EXPECT_EQ(toHex(sealed.tag), "3247184b3c4f69a44dbcd22887bbb418");
}

// AES-256 with unaligned payload (100 bytes) and AAD (20 bytes).
TEST(AesGcmKat, Aes256Mixed)
{
    AesGcm gcm(fromHex("feffe9928665731c6d6a8f9467308308"
                       "feffe9928665731c6d6a8f9467308308"));
    auto sealed =
        gcm.seal(kKatIv, katPattern(100, 10), katPattern(20, 11));
    EXPECT_EQ(toHex(sealed.ciphertext),
              "18ee188fa2906048a2b4759ca6931fad"
              "b1af8e152953ecf9e80699ba4c466052"
              "83fee9078fa72944fb6d4e4ebc46c6d7"
              "a72ed88c3ab5c73735f806e1f08d7cf2"
              "f75d900c23af66e0bb07c5e7d51a9ba5"
              "8fac452e689472e3e8a516ecbbe6227f"
              "7489ff52");
    EXPECT_EQ(toHex(sealed.tag), "e7240457b72beacc5611b2da85994e24");
}

// ---------------------------------------------------------------------
// In-place seal/open overloads (the data-plane entry points).
// ---------------------------------------------------------------------

TEST(AesGcmInPlace, MatchesByValueSeal)
{
    sim::Rng rng(20);
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    Bytes aad = rng.bytes(24);
    for (size_t size : {0ul, 1ul, 16ul, 100ul, 4096ul, 4101ul}) {
        Bytes pt = rng.bytes(size);
        auto sealed = gcm.seal(iv, pt, aad);

        Bytes buf = pt;
        std::uint8_t tag[crypto::kGcmTagSize];
        gcm.sealInPlace(iv, buf.data(), buf.size(), aad.data(),
                        aad.size(), tag);
        EXPECT_EQ(buf, sealed.ciphertext) << "size " << size;
        EXPECT_EQ(Bytes(tag, tag + sizeof(tag)), sealed.tag)
            << "size " << size;

        ASSERT_TRUE(gcm.openInPlace(iv, buf.data(), buf.size(), tag,
                                    aad.data(), aad.size()))
            << "size " << size;
        EXPECT_EQ(buf, pt) << "size " << size;
    }
}

// A failed open releases no plaintext: the one-pass kernel decrypts
// before the tag is known, so on a mismatch it must crypt the
// destination back to exactly the ciphertext — in place, out of
// place and in the parallel open — at every tier and at sizes below
// and above every stitched stride.
TEST(AesGcmInPlace, TamperLeavesCiphertextUntouched)
{
    const crypto::SimdTier best =
        crypto::selectSimdTier(crypto::cpuFeatures());
    crypto::WorkerPool pool(4);
    for (int tier = 0; tier <= static_cast<int>(best); ++tier) {
        crypto::overrideSimdTierForTest(tier);
        for (size_t len : {size_t{64}, size_t{4096 + 17},
                           size_t{256 * 1024}}) {
            sim::Rng rng(21 + len);
            AesGcm gcm(rng.bytes(16));
            Bytes iv = rng.bytes(12);
            Bytes plain = rng.bytes(len);
            Bytes sealedCt = plain;
            std::uint8_t goodTag[crypto::kGcmTagSize];
            gcm.sealInPlace(iv, sealedCt.data(), sealedCt.size(),
                            nullptr, 0, goodTag);

            for (bool flipTag : {true, false}) {
                SCOPED_TRACE(std::string(crypto::simdTierName(
                                 static_cast<crypto::SimdTier>(tier))) +
                             ", len " + std::to_string(len) +
                             (flipTag ? ", tag bit" : ", ciphertext bit"));
                Bytes ciphertext = sealedCt;
                std::uint8_t tag[crypto::kGcmTagSize];
                std::memcpy(tag, goodTag, sizeof(tag));
                if (flipTag)
                    tag[3] ^= 0x10;
                else
                    ciphertext[len / 2] ^= 0x04;

                Bytes buf = ciphertext;
                EXPECT_FALSE(gcm.openInPlace(iv, buf.data(), buf.size(),
                                             tag, nullptr, 0));
                EXPECT_EQ(buf, ciphertext) << "in place";

                Bytes dst(len, 0xEE);
                EXPECT_FALSE(gcm.open(iv, ciphertext.data(), dst.data(),
                                      len, tag, nullptr, 0));
                EXPECT_EQ(dst, ciphertext) << "out of place";

                for (int width : {2, 4}) {
                    Bytes par = ciphertext;
                    EXPECT_FALSE(gcm.open(iv, par.data(), par.data(),
                                          len, tag, nullptr, 0, pool,
                                          width));
                    EXPECT_EQ(par, ciphertext)
                        << "parallel in place, width " << width;
                    Bytes parDst(len, 0xEE);
                    EXPECT_FALSE(gcm.open(iv, ciphertext.data(),
                                          parDst.data(), len, tag,
                                          nullptr, 0, pool, width));
                    EXPECT_EQ(parDst, ciphertext)
                        << "parallel out of place, width " << width;
                }
            }
        }
    }
    crypto::overrideSimdTierForTest(-1);
}

// Property sweep: every payload size from 1 to 64 round-trips.
class GcmSizeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(GcmSizeSweep, RoundTrip)
{
    sim::Rng rng(100 + GetParam());
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    Bytes pt = rng.bytes(GetParam());
    auto sealed = gcm.seal(iv, pt);
    EXPECT_EQ(sealed.ciphertext.size(), pt.size());
    auto opened = gcm.open(iv, sealed.ciphertext, sealed.tag);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, pt);
}

INSTANTIATE_TEST_SUITE_P(AllSmallSizes, GcmSizeSweep,
                         ::testing::Range(1, 65));
