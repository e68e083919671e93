/**
 * @file
 * Runtime CPU feature probe for the SIMD crypto dispatch.
 *
 * The secure data plane picks its crypto kernels once per process:
 * cpuid decides whether the AES-NI/PCLMULQDQ (and, where present,
 * VAES/VPCLMULQDQ) GCM paths and the SHA-NI SHA-256 compressor are
 * usable, and `CCAI_NO_SIMD=1` forces the portable fallbacks for CI
 * parity runs. The probe is
 * cached; the answer never changes mid-run except through the test
 * override hook.
 */

#ifndef CCAI_CRYPTO_CPU_FEATURES_HH
#define CCAI_CRYPTO_CPU_FEATURES_HH

namespace ccai::crypto
{

/** Raw cpuid feature bits the crypto dispatch cares about. */
struct CpuFeatures
{
    bool ssse3 = false;
    bool sse41 = false;
    bool aesni = false;
    bool pclmul = false;
    bool avx2 = false;       ///< includes OS YMM-state support
    bool vaes = false;       ///< includes OS YMM-state support
    bool vpclmulqdq = false; ///< includes OS YMM-state support
    bool sha = false;        ///< SHA-NI (leaf 7, EBX bit 29)
};

/** Cached cpuid probe (all-false on non-x86 builds). */
const CpuFeatures &cpuFeatures();

/**
 * Which GCM kernel family the dispatcher selected. kNone also keeps
 * SHA-256 on its portable compressor.
 */
enum class SimdTier
{
    kNone = 0,       ///< table-driven portable path
    kAesniClmul = 1, ///< 128-bit AES-NI + PCLMULQDQ
    kVaes = 2,       ///< 256-bit VAES CTR on top of kAesniClmul
};

/**
 * Selected tier: cpuid capabilities gated by `CCAI_NO_SIMD` (any
 * non-empty value other than "0" disables SIMD). Cached after first
 * call; the test override below bypasses the cache.
 */
SimdTier simdTier();

/**
 * Test hook: force a tier (pass the SimdTier as an int) or clear the
 * override with -1. Ciphers constructed while an override is active
 * bake the overridden tier into their dispatch context.
 */
void overrideSimdTierForTest(int tier);

/** Human-readable tier name for logs and bench JSON. */
const char *simdTierName(SimdTier tier);

} // namespace ccai::crypto

#endif // CCAI_CRYPTO_CPU_FEATURES_HH
