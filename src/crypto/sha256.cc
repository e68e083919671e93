#include "sha256.hh"

#include <algorithm>
#include <cstring>

#include "common/bytes_util.hh"
#include "cpu_features.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ccai::crypto
{

namespace
{

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

/** FIPS 180-4 compression, one block at a time: the parity reference. */
void
compressPortable(std::uint32_t *state, const std::uint8_t *blocks,
                 size_t nblocks)
{
    for (; nblocks > 0; --nblocks, blocks += kSha256BlockSize) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i)
            w[i] = loadBe32(blocks + 4 * i);
        for (int i = 16; i < 64; ++i) {
            std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                               (w[i - 15] >> 3);
            std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                               (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2],
                      d = state[3], e = state[4], f = state[5],
                      g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            std::uint32_t ch = (e & f) ^ (~e & g);
            std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
            std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)

// Per-function target attributes keep this TU on baseline flags;
// compressShaNi is only reached when cpuid reports SHA-NI.
#define CCAI_TGT_SHA __attribute__((target("sha,sse4.1,ssse3")))

/**
 * Four rounds: @p msg holds schedule words w[4i..4i+3]. The state
 * lives as (abef, cdgh), the layout sha256rnds2 expects.
 */
CCAI_TGT_SHA inline void
shaNiRounds(__m128i &abef, __m128i &cdgh, __m128i msg, int i)
{
    __m128i wk = _mm_add_epi32(
        msg, _mm_loadu_si128(reinterpret_cast<const __m128i *>(kK + 4 * i)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

/**
 * Next four schedule words from the previous sixteen: @p w0 (oldest)
 * .. @p w3 (newest) hold w[t-16..t-1]; the result replaces @p w0.
 */
CCAI_TGT_SHA inline void
shaNiSchedule(__m128i &w0, __m128i w1, __m128i w2, __m128i w3)
{
    __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                              _mm_alignr_epi8(w3, w2, 4));
    w0 = _mm_sha256msg2_epu32(t, w3);
}

/** Aligned to 64 so its speed does not move with code placement. */
CCAI_TGT_SHA __attribute__((aligned(64))) void
compressShaNi(std::uint32_t *state, const std::uint8_t *blocks,
              size_t nblocks)
{
    // Byte-swap each 32-bit word: message words are big-endian.
    const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL,
                                         0x0405060700010203ULL);
    __m128i dcba =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; nblocks > 0; --nblocks, blocks += kSha256BlockSize) {
        const __m128i abefIn = abef, cdghIn = cdgh;
        const auto *in = reinterpret_cast<const __m128i *>(blocks);
        __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), bswap);
        __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
        __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
        __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
        shaNiRounds(abef, cdgh, w0, 0);
        shaNiRounds(abef, cdgh, w1, 1);
        shaNiRounds(abef, cdgh, w2, 2);
        shaNiRounds(abef, cdgh, w3, 3);
        for (int i = 4; i < 16; i += 4) {
            shaNiSchedule(w0, w1, w2, w3);
            shaNiRounds(abef, cdgh, w0, i);
            shaNiSchedule(w1, w2, w3, w0);
            shaNiRounds(abef, cdgh, w1, i + 1);
            shaNiSchedule(w2, w3, w0, w1);
            shaNiRounds(abef, cdgh, w2, i + 2);
            shaNiSchedule(w3, w0, w1, w2);
            shaNiRounds(abef, cdgh, w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abefIn);
        cdgh = _mm_add_epi32(cdgh, cdghIn);
    }

    __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#endif // __x86_64__

} // namespace

bool
sha256UsesShaNi()
{
    const CpuFeatures &f = cpuFeatures();
    return f.sha && f.sse41 && f.ssse3 && simdTier() != SimdTier::kNone;
}

Sha256::Sha256() : compress_(compressPortable)
{
#if defined(__x86_64__)
    if (sha256UsesShaNi())
        compress_ = compressShaNi;
#endif
    reset();
}

void
Sha256::reset()
{
    state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    totalLen_ = 0;
    bufferLen_ = 0;
}

void
Sha256::update(const std::uint8_t *data, size_t len)
{
    if (len == 0)
        return;
    totalLen_ += len;
    if (bufferLen_ > 0) {
        size_t take = std::min(len, kSha256BlockSize - bufferLen_);
        std::memcpy(buffer_ + bufferLen_, data, take);
        bufferLen_ += take;
        data += take;
        len -= take;
        if (bufferLen_ < kSha256BlockSize)
            return;
        compress_(state_.data(), buffer_, 1);
        bufferLen_ = 0;
    }
    size_t whole = len / kSha256BlockSize;
    if (whole > 0) {
        compress_(state_.data(), data, whole);
        data += whole * kSha256BlockSize;
        len -= whole * kSha256BlockSize;
    }
    if (len > 0) {
        std::memcpy(buffer_, data, len);
        bufferLen_ = len;
    }
}

void
Sha256::finalize(std::uint8_t *out)
{
    // 0x80, zeros up to 56 mod 64, then the 64-bit bit length: one
    // block, or two when fewer than 9 bytes of the last one are free.
    constexpr size_t kLenAt = kSha256BlockSize - 8;
    buffer_[bufferLen_++] = 0x80;
    if (bufferLen_ > kLenAt) {
        std::memset(buffer_ + bufferLen_, 0,
                    kSha256BlockSize - bufferLen_);
        compress_(state_.data(), buffer_, 1);
        bufferLen_ = 0;
    }
    std::memset(buffer_ + bufferLen_, 0, kLenAt - bufferLen_);
    storeBe64(buffer_ + kLenAt, totalLen_ * 8);
    compress_(state_.data(), buffer_, 1);

    for (int i = 0; i < 8; ++i)
        storeBe32(out + 4 * i, state_[i]);
    reset();
}

Bytes
Sha256::finalize()
{
    Bytes out(kSha256DigestSize);
    finalize(out.data());
    return out;
}

Bytes
Sha256::digest(const Bytes &data)
{
    Sha256 h;
    h.update(data);
    return h.finalize();
}

Bytes
Sha256::digest(const std::string &data)
{
    Sha256 h;
    h.update(reinterpret_cast<const std::uint8_t *>(data.data()),
             data.size());
    return h.finalize();
}

HmacSha256::HmacSha256(const Bytes &key)
{
    // Keys longer than a block are hashed first; shorter ones are
    // zero-padded to one block.
    std::uint8_t k[kSha256BlockSize] = {};
    if (key.size() > kSha256BlockSize) {
        Sha256 h;
        h.update(key);
        h.finalize(k);
    } else if (!key.empty()) {
        std::memcpy(k, key.data(), key.size());
    }
    std::uint8_t pad[kSha256BlockSize];
    for (size_t i = 0; i < kSha256BlockSize; ++i)
        pad[i] = k[i] ^ 0x36;
    inner_.update(pad, kSha256BlockSize);
    for (size_t i = 0; i < kSha256BlockSize; ++i)
        pad[i] = k[i] ^ 0x5c;
    outer_.update(pad, kSha256BlockSize);
}

void
HmacSha256::mac(const std::uint8_t *a, size_t aLen, const std::uint8_t *b,
                size_t bLen, std::uint8_t *out) const
{
    std::uint8_t innerDigest[kSha256DigestSize];
    Sha256 h = inner_;
    h.update(a, aLen);
    h.update(b, bLen);
    h.finalize(innerDigest);
    h = outer_;
    h.update(innerDigest, kSha256DigestSize);
    h.finalize(out);
}

Bytes
hmacSha256(const Bytes &key, const Bytes &message)
{
    Bytes out(kSha256DigestSize);
    HmacSha256(key).mac(message.data(), message.size(), nullptr, 0,
                        out.data());
    return out;
}

Bytes
kdf(const Bytes &ikm, const Bytes &salt, const std::string &info,
    size_t length)
{
    // Extract
    Bytes prk = hmacSha256(salt, ikm);
    // Expand
    Bytes okm;
    Bytes t;
    std::uint8_t counter = 1;
    while (okm.size() < length) {
        Bytes block = t;
        block.insert(block.end(), info.begin(), info.end());
        block.push_back(counter++);
        t = hmacSha256(prk, block);
        okm.insert(okm.end(), t.begin(), t.end());
    }
    okm.resize(length);
    return okm;
}

} // namespace ccai::crypto
