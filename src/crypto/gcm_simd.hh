/**
 * @file
 * Runtime-dispatched SIMD AES-GCM: one stitched kernel that loads
 * each input block once, runs it through AES-CTR and folds the
 * ciphertext into GHASH, with one aggregated reduction per stride
 * (Gueron & Kounavis, "Intel Carry-Less Multiplication Instruction
 * and its Usage for Computing the GCM Mode").
 *
 * The loop is written once over a lane type and instantiated at
 * three widths: 128-bit AES-NI + PCLMULQDQ (SimdTier::kAesniClmul),
 * 256-bit VAES + VPCLMULQDQ (kVaes) and 512-bit VAES + VPCLMULQDQ
 * (kVaes512). It is a bit-exact replacement for the table-driven CTR
 * and GHASH in gcm.cc — same counter layout, same GHASH field
 * convention (accumulator held as two big-endian 64-bit halves) — so
 * tags match the table path at every tier. Each width's copy of the
 * loop is compiled inside its own target region; the translation
 * unit itself builds with baseline flags, so CI portability is
 * unchanged, and non-x86 builds degrade to contexts that are not
 * ready().
 */

#ifndef CCAI_CRYPTO_GCM_SIMD_HH
#define CCAI_CRYPTO_GCM_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "crypto/cpu_features.hh"

namespace ccai::crypto
{

/** Most blocks one stitched stride hashes with a single reduction. */
constexpr int kGcmSimdMaxStride = 16;

/**
 * Per-cipher dispatch context baked at AesGcm construction: expanded
 * AES round keys in hardware layout, the GHASH key powers H^1..H^16
 * (byte-reflected) for the aggregated reduction, and the tier whose
 * kernel runs. Plain bytes so the struct stays copyable and
 * header-portable; kernels reload into vector registers on entry.
 */
struct GcmSimdCtx
{
    /** Round keys, 16 bytes each, rounds+1 entries (<= 15). */
    alignas(64) std::uint8_t roundKeys[15][16] = {};
    /**
     * hPow[i] = H^(16-i). A run of m <= 16 blocks multiplies its
     * block b by H^(m-b), which is hPow[16-m+b], so a vector load
     * reads its blocks' powers in order.
     */
    alignas(64) std::uint8_t hPow[kGcmSimdMaxStride][16] = {};
    int rounds = 0;
    SimdTier tier = SimdTier::kNone;

    /** A SIMD kernel is baked in (false -> table path). */
    bool ready() const { return tier != SimdTier::kNone; }
};

/**
 * Populate @p ctx from the expanded round-key words (big-endian,
 * four per round, rounds+1 rounds) and the GHASH subkey H as its two
 * big-endian halves, for the selected simdTier(). Leaves the context
 * not ready() when that tier is kNone.
 */
void gcmSimdInit(GcmSimdCtx &ctx, const std::uint32_t *rkWords,
                 int rounds, std::uint64_t hHigh, std::uint64_t hLow);

/**
 * One pass of GCM over @p len bytes: XOR the CTR keystream into
 * @p src and write the result to @p dst, and absorb the ciphertext —
 * @p dst when @p encrypt, @p src otherwise — into the GHASH
 * accumulator (@p yh / @p yl: big-endian halves, same convention as
 * the table path). The counter block is iv || be32(counter),
 * incremented per 16-byte block; a partial final block consumes the
 * keystream prefix and is hashed zero-padded. @p src and @p dst are
 * either equal (in place) or disjoint. Requires ctx.ready().
 */
void gcmSimdCrypt(const GcmSimdCtx &ctx, const std::uint8_t iv[12],
                  std::uint32_t counter, const std::uint8_t *src,
                  std::uint8_t *dst, size_t len, std::uint64_t &yh,
                  std::uint64_t &yl, bool encrypt);

} // namespace ccai::crypto

#endif // CCAI_CRYPTO_GCM_SIMD_HH
