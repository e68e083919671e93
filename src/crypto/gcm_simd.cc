#include "gcm_simd.hh"

#include <cstring>

// The stitched loop (gcm_simd_stitch.inc) is written once and
// compiled three times, once inside each width's `#pragma GCC target`
// region, next to that width's lane type; other compilers build the
// portable path only.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define CCAI_GCM_SIMD 1
#include <immintrin.h>
#else
#define CCAI_GCM_SIMD 0
#endif

namespace ccai::crypto
{

#if CCAI_GCM_SIMD

namespace
{

// ---------------------------------------------------------------------
// 128-bit helpers and lanes. The helpers use the baseline tier's ISA,
// so every wider copy of the loop can inline them.
// ---------------------------------------------------------------------
#pragma GCC push_options
#pragma GCC target("aes,pclmul,ssse3,sse4.1")

inline __m128i
load128(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

inline void
store128(std::uint8_t *p, __m128i v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
}

/** dst[i] = src[15-i]: block bytes <-> GHASH bit-reflected lanes. */
inline __m128i
bswapMask()
{
    return _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                        14, 15);
}

/**
 * (lo, hi) ^= a * b as a raw 256-bit carry-less product (Karatsuba-
 * free four-multiply form). Deferring the shift/reduce lets
 * aggregation pay one reduction per run of blocks.
 */
inline void
clmulAcc(__m128i a, __m128i b, __m128i &lo, __m128i &hi)
{
    __m128i t0 = _mm_clmulepi64_si128(a, b, 0x00);
    __m128i t1 = _mm_clmulepi64_si128(a, b, 0x10);
    __m128i t2 = _mm_clmulepi64_si128(a, b, 0x01);
    __m128i t3 = _mm_clmulepi64_si128(a, b, 0x11);
    __m128i mid = _mm_xor_si128(t1, t2);
    lo = _mm_xor_si128(lo,
                       _mm_xor_si128(t0, _mm_slli_si128(mid, 8)));
    hi = _mm_xor_si128(hi,
                       _mm_xor_si128(t3, _mm_srli_si128(mid, 8)));
}

/**
 * Finish a GHASH multiply: shift the 256-bit product left one bit
 * (the bit-reflection adjustment from the Intel CLMUL white paper)
 * and reduce mod x^128 + x^7 + x^2 + x + 1.
 */
inline __m128i
ghashReduce(__m128i lo, __m128i hi)
{
    // 256-bit shift left by 1: per-dword shifts with carries marched
    // up one lane, the top carry of lo crossing into hi.
    __m128i cLo = _mm_srli_epi32(lo, 31);
    __m128i cHi = _mm_srli_epi32(hi, 31);
    lo = _mm_slli_epi32(lo, 1);
    hi = _mm_slli_epi32(hi, 1);
    __m128i cross = _mm_srli_si128(cLo, 12);
    lo = _mm_or_si128(lo, _mm_slli_si128(cLo, 4));
    hi = _mm_or_si128(hi, _mm_slli_si128(cHi, 4));
    hi = _mm_or_si128(hi, cross);

    // Phase 1: fold x^31/x^30/x^25 terms of the low half upward.
    __m128i t = _mm_xor_si128(
        _mm_slli_epi32(lo, 31),
        _mm_xor_si128(_mm_slli_epi32(lo, 30), _mm_slli_epi32(lo, 25)));
    __m128i tHi = _mm_srli_si128(t, 4);
    lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
    // Phase 2: x^-1/x^-2/x^-7 folds complete the reduction.
    __m128i r = _mm_xor_si128(
        _mm_srli_epi32(lo, 1),
        _mm_xor_si128(_mm_srli_epi32(lo, 2), _mm_srli_epi32(lo, 7)));
    r = _mm_xor_si128(r, tHi);
    lo = _mm_xor_si128(lo, r);
    return _mm_xor_si128(hi, lo);
}

/** H^1..H^16 into ctx.hPow in descending order. */
void
initHPowers(GcmSimdCtx &ctx, std::uint64_t hHigh, std::uint64_t hLow)
{
    const __m128i h1 = _mm_set_epi64x(
        static_cast<long long>(hHigh), static_cast<long long>(hLow));
    __m128i p = h1;
    for (int i = kGcmSimdMaxStride - 1; i >= 0; --i) {
        store128(ctx.hPow[i], p);
        __m128i lo = _mm_setzero_si128();
        __m128i hi = _mm_setzero_si128();
        clmulAcc(p, h1, lo, hi);
        p = ghashReduce(lo, hi);
    }
}

namespace w128
{

/** 128-bit lanes: one block per register, eight per stride. */
struct Lane
{
    using V = __m128i;
    static constexpr int kBlocks = 1;
    static constexpr int kVecs = 8;

    static V load(const std::uint8_t *p) { return load128(p); }
    static void store(std::uint8_t *p, V v) { store128(p, v); }
    static V broadcast(__m128i x) { return x; }
    /** @p x in lane 0, zero elsewhere. */
    static V lane0(__m128i x) { return x; }
    /** XOR of all 128-bit lanes. */
    static __m128i fold(V v) { return v; }
    /** Lane 0. */
    static __m128i low(V v) { return v; }
    /** Lane l holds l in dword 0: per-lane counter offsets. */
    static V laneIndex() { return _mm_setzero_si128(); }
    static V xor_(V a, V b) { return _mm_xor_si128(a, b); }
    static V add32(V a, V b) { return _mm_add_epi32(a, b); }
    static V shuffle(V a, V m) { return _mm_shuffle_epi8(a, m); }
    static V aesenc(V a, V k) { return _mm_aesenc_si128(a, k); }
    static V aesenclast(V a, V k) { return _mm_aesenclast_si128(a, k); }
    template <int kImm>
    static V
    clmul(V a, V b)
    {
        return _mm_clmulepi64_si128(a, b, kImm);
    }
};

#include "gcm_simd_stitch.inc"

} // namespace w128

#pragma GCC pop_options

// ---------------------------------------------------------------------
// 256-bit lanes: two blocks per register, sixteen per stride.
// ---------------------------------------------------------------------
#pragma GCC push_options
#pragma GCC target("vaes,vpclmulqdq,avx2,aes,pclmul,ssse3,sse4.1")

namespace w256
{

struct Lane
{
    using V = __m256i;
    static constexpr int kBlocks = 2;
    static constexpr int kVecs = 8;

    static V
    load(const std::uint8_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const V *>(p));
    }
    static void
    store(std::uint8_t *p, V v)
    {
        _mm256_storeu_si256(reinterpret_cast<V *>(p), v);
    }
    static V broadcast(__m128i x) { return _mm256_broadcastsi128_si256(x); }
    static V lane0(__m128i x) { return _mm256_zextsi128_si256(x); }
    static __m128i
    fold(V v)
    {
        return _mm_xor_si128(_mm256_castsi256_si128(v),
                             _mm256_extracti128_si256(v, 1));
    }
    static __m128i low(V v) { return _mm256_castsi256_si128(v); }
    static V laneIndex() { return _mm256_set_epi32(0, 0, 0, 1, 0, 0, 0, 0); }
    static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
    static V add32(V a, V b) { return _mm256_add_epi32(a, b); }
    static V shuffle(V a, V m) { return _mm256_shuffle_epi8(a, m); }
    static V aesenc(V a, V k) { return _mm256_aesenc_epi128(a, k); }
    static V
    aesenclast(V a, V k)
    {
        return _mm256_aesenclast_epi128(a, k);
    }
    template <int kImm>
    static V
    clmul(V a, V b)
    {
        return _mm256_clmulepi64_epi128(a, b, kImm);
    }
};

#include "gcm_simd_stitch.inc"

} // namespace w256

#pragma GCC pop_options

// ---------------------------------------------------------------------
// 512-bit lanes: four blocks per register, sixteen per stride.
// ---------------------------------------------------------------------
#pragma GCC push_options
#pragma GCC target("vaes,vpclmulqdq,avx512f,avx512bw,avx512vl,avx2," \
                   "aes,pclmul,ssse3,sse4.1")
// GCC 12's broadcast/extract intrinsics seed their pass-through
// operand from a self-initialised "undefined" vector, which
// -Wmaybe-uninitialized reports once inlined (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace w512
{

struct Lane
{
    using V = __m512i;
    static constexpr int kBlocks = 4;
    static constexpr int kVecs = 4;

    static V load(const std::uint8_t *p) { return _mm512_loadu_si512(p); }
    static void store(std::uint8_t *p, V v) { _mm512_storeu_si512(p, v); }
    static V broadcast(__m128i x) { return _mm512_broadcast_i32x4(x); }
    static V lane0(__m128i x) { return _mm512_zextsi128_si512(x); }
    static __m128i
    fold(V v)
    {
        return _mm_xor_si128(
            _mm_xor_si128(_mm512_extracti32x4_epi32(v, 0),
                          _mm512_extracti32x4_epi32(v, 1)),
            _mm_xor_si128(_mm512_extracti32x4_epi32(v, 2),
                          _mm512_extracti32x4_epi32(v, 3)));
    }
    static __m128i low(V v) { return _mm512_castsi512_si128(v); }
    static V
    laneIndex()
    {
        return _mm512_set_epi32(0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0,
                                0, 0);
    }
    static V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
    static V add32(V a, V b) { return _mm512_add_epi32(a, b); }
    static V shuffle(V a, V m) { return _mm512_shuffle_epi8(a, m); }
    static V aesenc(V a, V k) { return _mm512_aesenc_epi128(a, k); }
    static V
    aesenclast(V a, V k)
    {
        return _mm512_aesenclast_epi128(a, k);
    }
    template <int kImm>
    static V
    clmul(V a, V b)
    {
        return _mm512_clmulepi64_epi128(a, b, kImm);
    }
};

#include "gcm_simd_stitch.inc"

} // namespace w512

#pragma GCC diagnostic pop
#pragma GCC pop_options

using Kernel = void (*)(const GcmSimdCtx &, const std::uint8_t *,
                        std::uint32_t, const std::uint8_t *,
                        std::uint8_t *, size_t, __m128i &);

/** kKernels[tier - 1][encrypt]. */
constexpr Kernel kKernels[3][2] = {
    {w128::stitch<false>, w128::stitch<true>},
    {w256::stitch<false>, w256::stitch<true>},
    {w512::stitch<false>, w512::stitch<true>},
};

} // namespace

void
gcmSimdInit(GcmSimdCtx &ctx, const std::uint32_t *rkWords, int rounds,
            std::uint64_t hHigh, std::uint64_t hLow)
{
    ctx.tier = SimdTier::kNone;
    SimdTier tier = simdTier();
    if (tier == SimdTier::kNone)
        return;
    ctx.rounds = rounds;
    // BE round-key words -> the byte layout AES-NI expects.
    for (int r = 0; r <= rounds; ++r) {
        for (int c = 0; c < 4; ++c) {
            std::uint32_t w = rkWords[4 * r + c];
            ctx.roundKeys[r][4 * c + 0] =
                static_cast<std::uint8_t>(w >> 24);
            ctx.roundKeys[r][4 * c + 1] =
                static_cast<std::uint8_t>(w >> 16);
            ctx.roundKeys[r][4 * c + 2] =
                static_cast<std::uint8_t>(w >> 8);
            ctx.roundKeys[r][4 * c + 3] = static_cast<std::uint8_t>(w);
        }
    }
    initHPowers(ctx, hHigh, hLow);
    ctx.tier = tier;
}

void
gcmSimdCrypt(const GcmSimdCtx &ctx, const std::uint8_t iv[12],
             std::uint32_t counter, const std::uint8_t *src,
             std::uint8_t *dst, size_t len, std::uint64_t &yh,
             std::uint64_t &yl, bool encrypt)
{
    if (len == 0)
        return;
    __m128i y = _mm_set_epi64x(static_cast<long long>(yh),
                               static_cast<long long>(yl));
    kKernels[static_cast<int>(ctx.tier) - 1][encrypt](
        ctx, iv, counter, src, dst, len, y);
    alignas(16) std::uint64_t halves[2] = {};
    _mm_store_si128(reinterpret_cast<__m128i *>(halves), y);
    yl = halves[0];
    yh = halves[1];
}

#else // !CCAI_GCM_SIMD

void
gcmSimdInit(GcmSimdCtx &ctx, const std::uint32_t *, int, std::uint64_t,
            std::uint64_t)
{
    ctx.tier = SimdTier::kNone;
}

void
gcmSimdCrypt(const GcmSimdCtx &, const std::uint8_t *, std::uint32_t,
             const std::uint8_t *, std::uint8_t *, size_t,
             std::uint64_t &, std::uint64_t &, bool)
{
}

#endif

} // namespace ccai::crypto
