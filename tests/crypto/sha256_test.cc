/**
 * @file
 * SHA-256 / HMAC-SHA256 / KDF tests against the FIPS 180-4 and RFC
 * 4231 known-answer vectors, plus parity of the SHA-NI compressor
 * with the portable one and of the keyed HMAC context with a
 * textbook HMAC.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes_util.hh"
#include "crypto/cpu_features.hh"
#include "crypto/sha256.hh"
#include "sim/rng.hh"

using namespace ccai;
using crypto::Sha256;

namespace
{

/** RAII tier override; clears back to the cpuid probe on exit. */
struct ForcedTier
{
    explicit ForcedTier(crypto::SimdTier tier)
    {
        crypto::overrideSimdTierForTest(static_cast<int>(tier));
    }
    ~ForcedTier() { crypto::overrideSimdTierForTest(-1); }
};

/**
 * For every length 0..1024, a seeded message's one-shot digest
 * followed by its digest when fed in random 1..150-byte splits (so
 * updates start and end mid-block and span several blocks).
 */
std::vector<Bytes>
corpusDigests()
{
    sim::Rng rng(14);
    std::vector<Bytes> out;
    for (size_t len = 0; len <= 1024; ++len) {
        Bytes msg = rng.bytes(len);
        out.push_back(Sha256::digest(msg));
        Sha256 h;
        for (size_t off = 0; off < len;) {
            size_t take = std::min<size_t>(rng.uniform(1, 150), len - off);
            h.update(msg.data() + off, take);
            off += take;
        }
        out.push_back(h.finalize());
    }
    return out;
}

/** RFC 2104 spelled out over one-shot digests. */
Bytes
textbookHmac(const Bytes &key, const Bytes &msg)
{
    Bytes k = key.size() > 64 ? Sha256::digest(key) : key;
    k.resize(64, 0);
    Bytes inner(64), outer(64);
    for (size_t i = 0; i < 64; ++i) {
        inner[i] = k[i] ^ 0x36;
        outer[i] = k[i] ^ 0x5c;
    }
    inner.insert(inner.end(), msg.begin(), msg.end());
    Bytes innerDigest = Sha256::digest(inner);
    outer.insert(outer.end(), innerDigest.begin(), innerDigest.end());
    return Sha256::digest(outer);
}

} // namespace

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(toHex(Sha256::digest(std::string(""))),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(toHex(Sha256::digest(std::string("abc"))),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(toHex(Sha256::digest(std::string(
                  "abcdbcdecdefdefgefghfghighijhijk"
                  "ijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 h;
    Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk);
    EXPECT_EQ(toHex(h.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot)
{
    sim::Rng rng(3);
    Bytes data = rng.bytes(10000);
    Sha256 streaming;
    size_t off = 0;
    size_t sizes[] = {1, 63, 64, 65, 100, 1000};
    int i = 0;
    while (off < data.size()) {
        size_t take =
            std::min(sizes[i++ % 6], data.size() - off);
        streaming.update(data.data() + off, take);
        off += take;
    }
    EXPECT_EQ(streaming.finalize(), Sha256::digest(data));
}

TEST(Sha256, ReusableAfterFinalize)
{
    Sha256 h;
    h.update(Bytes{'a', 'b', 'c'});
    Bytes first = h.finalize();
    h.update(Bytes{'a', 'b', 'c'});
    EXPECT_EQ(h.finalize(), first);
}

TEST(Sha256, HardwareKernelMatchesPortable)
{
    std::vector<Bytes> portable;
    {
        ForcedTier force(crypto::SimdTier::kNone);
        ASSERT_FALSE(crypto::sha256UsesShaNi());
        portable = corpusDigests();
    }
    for (size_t i = 0; i < portable.size(); i += 2)
        ASSERT_EQ(portable[i], portable[i + 1])
            << "split digest differs, length " << i / 2;

    if (!crypto::sha256UsesShaNi())
        GTEST_SKIP() << "SHA-NI unavailable (cpuid or CCAI_NO_SIMD): "
                        "only the portable compressor ran";
    std::vector<Bytes> hardware = corpusDigests();
    ASSERT_EQ(hardware.size(), portable.size());
    for (size_t i = 0; i < portable.size(); ++i)
        ASSERT_EQ(hardware[i], portable[i])
            << (i % 2 ? "split" : "one-shot") << " digest, length "
            << i / 2;
}

// RFC 4231 test case 1.
TEST(HmacSha256, Rfc4231Case1)
{
    Bytes key(20, 0x0b);
    Bytes msg = {'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'};
    EXPECT_EQ(toHex(crypto::hmacSha256(key, msg)),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 (key shorter than block).
TEST(HmacSha256, Rfc4231Case2)
{
    Bytes key = {'J', 'e', 'f', 'e'};
    std::string m = "what do ya want for nothing?";
    Bytes msg(m.begin(), m.end());
    EXPECT_EQ(toHex(crypto::hmacSha256(key, msg)),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 6 (key longer than block).
TEST(HmacSha256, Rfc4231Case6)
{
    Bytes key(131, 0xaa);
    std::string m = "Test Using Larger Than Block-Size Key - "
                    "Hash Key First";
    Bytes msg(m.begin(), m.end());
    EXPECT_EQ(toHex(crypto::hmacSha256(key, msg)),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeyedContextMatchesOneShot)
{
    sim::Rng rng(15);
    for (size_t keyLen : {0, 4, 20, 32, 64, 65, 131}) {
        Bytes key = rng.bytes(keyLen);
        crypto::HmacSha256 ctx(key);
        for (int i = 0; i < 100; ++i) {
            Bytes a = rng.bytes(rng.uniform(0, 160));
            Bytes b = rng.bytes(rng.uniform(0, 160));
            Bytes ab = a;
            ab.insert(ab.end(), b.begin(), b.end());
            Bytes expected = textbookHmac(key, ab);
            ASSERT_EQ(crypto::hmacSha256(key, ab), expected)
                << "key " << keyLen << ", message " << i;

            Bytes whole(crypto::kSha256DigestSize);
            Bytes parts(crypto::kSha256DigestSize);
            ctx.mac(ab.data(), ab.size(), nullptr, 0, whole.data());
            ctx.mac(a.data(), a.size(), b.data(), b.size(), parts.data());
            ASSERT_EQ(whole, expected) << "key " << keyLen << ", message "
                                       << i;
            ASSERT_EQ(parts, expected) << "key " << keyLen << ", split at "
                                       << a.size() << " of " << ab.size();
        }
    }
}

TEST(Kdf, DeterministicAndLabelSeparated)
{
    Bytes ikm(22, 0x0b);
    Bytes salt = fromHex("000102030405060708090a0b0c");
    Bytes a = crypto::kdf(ikm, salt, "label-a", 32);
    Bytes b = crypto::kdf(ikm, salt, "label-a", 32);
    Bytes c = crypto::kdf(ikm, salt, "label-b", 32);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a.size(), 32u);
}

TEST(Kdf, VariableOutputLengthsArePrefixConsistent)
{
    Bytes ikm(32, 0x55);
    Bytes long_out = crypto::kdf(ikm, {}, "x", 80);
    Bytes short_out = crypto::kdf(ikm, {}, "x", 16);
    EXPECT_EQ(Bytes(long_out.begin(), long_out.begin() + 16),
              short_out);
    EXPECT_EQ(long_out.size(), 80u);
}

TEST(Kdf, SaltChangesOutput)
{
    Bytes ikm(32, 0x55);
    EXPECT_NE(crypto::kdf(ikm, Bytes{1}, "x", 32),
              crypto::kdf(ikm, Bytes{2}, "x", 32));
}
