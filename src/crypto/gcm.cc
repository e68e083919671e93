#include "gcm.hh"

#include <algorithm>
#include <cstring>

#include "common/bytes_util.hh"
#include "common/logging.hh"
#include "crypto/worker_pool.hh"

namespace ccai::crypto
{

namespace
{

/**
 * Reduction constants for the 4-bit table walk: kLast4[r] << 48 is
 * (r * x^-4 mod P) folded into the high half, P the GHASH polynomial
 * (0xe1 || 0^120).
 */
constexpr std::uint64_t kLast4[16] = {
    0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
    0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0,
};

/** How many CTR blocks one keystream batch covers (2 KiB stack). */
constexpr size_t kCtrBatchBlocks = 128;

} // namespace

AesGcm::AesGcm(const Bytes &key) : aes_(key)
{
    // GHASH subkey H = E_K(0^128), then the 4-bit Shoup table:
    // row i holds i*H so one multiply is 32 table lookups plus
    // 4-bit reduction shifts instead of 128 conditional xors.
    std::uint8_t h[16] = {0};
    aes_.encryptBlock(h);

    std::uint64_t vh = loadBe64(h);
    std::uint64_t vl = loadBe64(h + 8);
    hh_[8] = vh;
    hl_[8] = vl;
    hh_[0] = 0;
    hl_[0] = 0;
    for (int i = 4; i > 0; i >>= 1) {
        // Halve: v <- v * x^-1 (right shift with reduction).
        std::uint32_t t = (vl & 1) * 0xe1000000u;
        vl = (vh << 63) | (vl >> 1);
        vh = (vh >> 1) ^ (static_cast<std::uint64_t>(t) << 32);
        hh_[i] = vh;
        hl_[i] = vl;
    }
    for (int i = 2; i <= 8; i *= 2) {
        for (int j = 1; j < i; ++j) {
            hh_[i + j] = hh_[i] ^ hh_[j];
            hl_[i + j] = hl_[i] ^ hl_[j];
        }
    }

    // Repeated-squaring ladder for hPower(): H^(2^i).
    hp2h_[0] = hh_[8];
    hp2l_[0] = hl_[8];
    for (int i = 1; i < kHPowLadder; ++i)
        gf128Mul(hp2h_[i - 1], hp2l_[i - 1], hp2h_[i - 1],
                 hp2l_[i - 1], hp2h_[i], hp2l_[i]);

    // Bake the SIMD dispatch context (left not ready when cpuid or
    // CCAI_NO_SIMD rules the hardware path out).
    gcmSimdInit(simd_, aes_.roundKeyWords(), aes_.rounds(), hh_[8],
                hl_[8]);
}

void
AesGcm::gmult(std::uint64_t &yh, std::uint64_t &yl) const
{
    std::uint8_t x[16];
    storeBe64(x, yh);
    storeBe64(x + 8, yl);

    std::uint8_t lo = x[15] & 0xf;
    std::uint64_t zh = hh_[lo];
    std::uint64_t zl = hl_[lo];

    for (int i = 15; i >= 0; --i) {
        lo = x[i] & 0xf;
        std::uint8_t hi = x[i] >> 4;
        if (i != 15) {
            std::uint8_t rem = zl & 0xf;
            zl = (zh << 60) | (zl >> 4);
            zh = (zh >> 4) ^ (kLast4[rem] << 48);
            zh ^= hh_[lo];
            zl ^= hl_[lo];
        }
        std::uint8_t rem = zl & 0xf;
        zl = (zh << 60) | (zl >> 4);
        zh = (zh >> 4) ^ (kLast4[rem] << 48);
        zh ^= hh_[hi];
        zl ^= hl_[hi];
    }
    yh = zh;
    yl = zl;
}

void
AesGcm::ghashAbsorb(std::uint64_t &yh, std::uint64_t &yl,
                    const std::uint8_t *data, size_t len) const
{
    size_t off = 0;
    while (off + 16 <= len) {
        yh ^= loadBe64(data + off);
        yl ^= loadBe64(data + off + 8);
        gmult(yh, yl);
        off += 16;
    }
    if (off < len) {
        std::uint8_t block[16] = {0};
        std::memcpy(block, data + off, len - off);
        yh ^= loadBe64(block);
        yl ^= loadBe64(block + 8);
        gmult(yh, yl);
    }
}

void
AesGcm::ctrApply(const Bytes &iv, const std::uint8_t *src,
                 std::uint8_t *dst, size_t len,
                 std::uint32_t counter) const
{
    std::uint8_t ks[kCtrBatchBlocks * kAesBlockSize];
    size_t off = 0;
    while (off < len) {
        size_t blocks = std::min(kCtrBatchBlocks,
                                 (len - off + 15) / kAesBlockSize);
        aes_.ctrKeystream(iv.data(), counter, ks, blocks);
        counter += static_cast<std::uint32_t>(blocks);
        size_t take = std::min(len - off, blocks * kAesBlockSize);
        for (size_t j = 0; j < take; ++j)
            dst[off + j] = src[off + j] ^ ks[j];
        off += take;
    }
}

void
AesGcm::cryptHash(const Bytes &iv, std::uint32_t counter,
                  const std::uint8_t *src, std::uint8_t *dst, size_t len,
                  std::uint64_t &yh, std::uint64_t &yl,
                  bool encrypt) const
{
    ccai_assert(iv.size() == kGcmIvSize);
    if (simd_.ready()) {
        gcmSimdCrypt(simd_, iv.data(), counter, src, dst, len, yh, yl,
                     encrypt);
        return;
    }
    // Reference path: two walks, hashing the ciphertext side.
    if (!encrypt)
        ghashAbsorb(yh, yl, src, len);
    ctrApply(iv, src, dst, len, counter);
    if (encrypt)
        ghashAbsorb(yh, yl, dst, len);
}

void
AesGcm::finishTag(const Bytes &iv, std::uint64_t yh, std::uint64_t yl,
                  size_t aadLen, size_t len,
                  std::uint8_t tag[kGcmTagSize]) const
{
    yh ^= static_cast<std::uint64_t>(aadLen) * 8;
    yl ^= static_cast<std::uint64_t>(len) * 8;
    gmult(yh, yl);

    // Tag = E_K(J0) xor S, where J0 = IV || 0^31 1.
    std::uint8_t mask[kAesBlockSize];
    aes_.ctrKeystream(iv.data(), 1, mask, 1);
    storeBe64(tag, yh);
    storeBe64(tag + 8, yl);
    for (size_t i = 0; i < kGcmTagSize; ++i)
        tag[i] ^= mask[i];
}

bool
AesGcm::verifyOrRestore(const Bytes &iv, std::uint8_t *dst, size_t len,
                        const std::uint8_t expect[kGcmTagSize],
                        const std::uint8_t tag[kGcmTagSize]) const
{
    // Constant-shape comparison (no early exit), matching hardware
    // tag-check semantics.
    std::uint8_t diff = 0;
    for (size_t i = 0; i < kGcmTagSize; ++i)
        diff |= expect[i] ^ tag[i];
    if (diff == 0)
        return true;
    // The one pass decrypted before the tag was known: the keystream
    // again turns the destination back into the ciphertext, so no
    // unverified plaintext is released.
    std::uint64_t junkH = 0, junkL = 0;
    cryptHash(iv, 2, dst, dst, len, junkH, junkL, true);
    return false;
}

void
AesGcm::seal(const Bytes &iv, const std::uint8_t *src, std::uint8_t *dst,
             size_t len, const std::uint8_t *aad, size_t aadLen,
             std::uint8_t tag[kGcmTagSize]) const
{
    std::uint64_t yh = 0, yl = 0;
    ghashAbsorb(yh, yl, aad, aadLen);
    cryptHash(iv, 2, src, dst, len, yh, yl, true);
    finishTag(iv, yh, yl, aadLen, len, tag);
}

bool
AesGcm::open(const Bytes &iv, const std::uint8_t *src, std::uint8_t *dst,
             size_t len, const std::uint8_t tag[kGcmTagSize],
             const std::uint8_t *aad, size_t aadLen) const
{
    std::uint64_t yh = 0, yl = 0;
    ghashAbsorb(yh, yl, aad, aadLen);
    cryptHash(iv, 2, src, dst, len, yh, yl, false);
    std::uint8_t expect[kGcmTagSize];
    finishTag(iv, yh, yl, aadLen, len, expect);
    return verifyOrRestore(iv, dst, len, expect, tag);
}

// ---------------------------------------------------------------------
// Parallel data-engine entry points. The decomposition is exact: CTR
// blocks are independent by construction, and GHASH distributes over
// contiguous segments as Y_n = A*H^n + sum_k S_k * H^{n-e_k}, where
// S_k is segment k's zero-seeded GHASH, e_k its end block index (the
// zero-padded partial block counts), n the payload's block count and
// A the post-AAD accumulator. Ciphertext and tags are therefore
// bit-identical to the serial path at any lane count.
// ---------------------------------------------------------------------

int
AesGcm::parallelLanes(size_t len, int width)
{
    if (width <= 1 || len < kGcmParallelMinBytes)
        return 1;
    // Keep every lane at least half the threshold so the fork is
    // never more expensive than the crypto it spreads.
    size_t cap = len / (kGcmParallelMinBytes / 2);
    return static_cast<int>(
        std::min<size_t>(static_cast<size_t>(width), cap));
}

void
AesGcm::gf128Mul(std::uint64_t xh, std::uint64_t xl, std::uint64_t yh,
                 std::uint64_t yl, std::uint64_t &zh, std::uint64_t &zl)
{
    // SP 800-38D Algorithm 1 in the bit-reflected convention the
    // Shoup table uses: V <- V * x is a right shift reduced by
    // R = 0xe1 << 120. The multiplicative identity is the block
    // 0x80 0x00... i.e. (1 << 63, 0).
    std::uint64_t vh = yh, vl = yl;
    zh = 0;
    zl = 0;
    for (int i = 0; i < 128; ++i) {
        std::uint64_t bit = i < 64 ? (xh >> (63 - i)) & 1
                                   : (xl >> (127 - i)) & 1;
        if (bit) {
            zh ^= vh;
            zl ^= vl;
        }
        std::uint64_t lsb = vl & 1;
        vl = (vh << 63) | (vl >> 1);
        vh >>= 1;
        if (lsb)
            vh ^= 0xe100000000000000ull;
    }
}

void
AesGcm::hPower(std::uint64_t t, std::uint64_t &ph,
               std::uint64_t &pl) const
{
    // Walk the precomputed H^(2^i) ladder: popcount(t) multiplies,
    // no squarings on the hot fold path.
    ccai_assert(t < (1ull << kHPowLadder));
    std::uint64_t rh = 1ull << 63, rl = 0; // identity
    for (int i = 0; t; ++i, t >>= 1) {
        if (t & 1)
            gf128Mul(rh, rl, hp2h_[i], hp2l_[i], rh, rl);
    }
    ph = rh;
    pl = rl;
}

void
AesGcm::cryptHashParallel(const Bytes &iv, const std::uint8_t *src,
                          std::uint8_t *dst, size_t len,
                          std::uint64_t &yh, std::uint64_t &yl,
                          bool encrypt, WorkerPool &pool,
                          int lanes) const
{
    const size_t fullBlocks = len / kAesBlockSize;
    const size_t nBlocks = (len + kAesBlockSize - 1) / kAesBlockSize;
    const size_t n = static_cast<size_t>(lanes);
    // Segment k covers blocks [b(k), b(k+1)); the last one also takes
    // the partial tail block.
    auto segEnd = [&](size_t k) {
        return k + 1 == n ? nBlocks : fullBlocks * (k + 1) / n;
    };

    std::vector<std::uint64_t> sh(n, 0), sl(n, 0);
    pool.parallelFor(n, lanes, [&](size_t k) {
        size_t b0 = fullBlocks * k / n;
        size_t begin = b0 * kAesBlockSize;
        size_t end = std::min(len, segEnd(k) * kAesBlockSize);
        if (end > begin)
            cryptHash(iv, 2 + static_cast<std::uint32_t>(b0),
                      src + begin, dst + begin, end - begin, sh[k],
                      sl[k], encrypt);
    });

    // Serial fold, identical at any scheduling: XOR is commutative
    // and every power is a pure function of the segment geometry.
    if (yh || yl) {
        std::uint64_t ph, pl;
        hPower(nBlocks, ph, pl);
        gf128Mul(yh, yl, ph, pl, yh, yl);
    }
    for (size_t k = 0; k < n; ++k) {
        std::uint64_t ph, pl, th, tl;
        hPower(nBlocks - segEnd(k), ph, pl);
        gf128Mul(sh[k], sl[k], ph, pl, th, tl);
        yh ^= th;
        yl ^= tl;
    }
}

void
AesGcm::seal(const Bytes &iv, const std::uint8_t *src, std::uint8_t *dst,
             size_t len, const std::uint8_t *aad, size_t aadLen,
             std::uint8_t tag[kGcmTagSize], WorkerPool &pool,
             int width) const
{
    int lanes = parallelLanes(len, width);
    if (lanes <= 1) {
        seal(iv, src, dst, len, aad, aadLen, tag);
        return;
    }
    std::uint64_t yh = 0, yl = 0;
    ghashAbsorb(yh, yl, aad, aadLen);
    cryptHashParallel(iv, src, dst, len, yh, yl, true, pool, lanes);
    finishTag(iv, yh, yl, aadLen, len, tag);
}

bool
AesGcm::open(const Bytes &iv, const std::uint8_t *src, std::uint8_t *dst,
             size_t len, const std::uint8_t tag[kGcmTagSize],
             const std::uint8_t *aad, size_t aadLen, WorkerPool &pool,
             int width) const
{
    int lanes = parallelLanes(len, width);
    if (lanes <= 1)
        return open(iv, src, dst, len, tag, aad, aadLen);
    std::uint64_t yh = 0, yl = 0;
    ghashAbsorb(yh, yl, aad, aadLen);
    cryptHashParallel(iv, src, dst, len, yh, yl, false, pool, lanes);
    std::uint8_t expect[kGcmTagSize];
    finishTag(iv, yh, yl, aadLen, len, expect);
    return verifyOrRestore(iv, dst, len, expect, tag);
}

Sealed
AesGcm::seal(const Bytes &iv, const Bytes &plaintext,
             const Bytes &aad) const
{
    Sealed result;
    result.ciphertext.resize(plaintext.size());
    result.tag.resize(kGcmTagSize);
    seal(iv, plaintext.data(), result.ciphertext.data(), plaintext.size(),
         aad.data(), aad.size(), result.tag.data());
    return result;
}

std::optional<Bytes>
AesGcm::open(const Bytes &iv, const Bytes &ciphertext, const Bytes &tag,
             const Bytes &aad) const
{
    if (tag.size() != kGcmTagSize)
        return std::nullopt;
    Bytes plaintext(ciphertext.size());
    if (!open(iv, ciphertext.data(), plaintext.data(), ciphertext.size(),
              tag.data(), aad.data(), aad.size()))
        return std::nullopt;
    return plaintext;
}

} // namespace ccai::crypto
