/**
 * @file
 * Runtime CPU feature probe for the SIMD crypto dispatch.
 *
 * The secure data plane picks its crypto kernels once per process:
 * cpuid and XCR0 decide which GCM kernel width (128-bit AES-NI,
 * 256-bit VAES or 512-bit VAES) and whether the SHA-NI SHA-256
 * compressor are usable, and `CCAI_NO_SIMD=1` forces the portable
 * fallbacks for CI parity runs. The rule is the pure function
 * selectSimdTier(), so it is table-tested apart from the host; the
 * probe is cached, and the answer never changes mid-run except
 * through the test override hook.
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
    bool avx512f = false;    ///< cpuid bit alone (leaf 7, EBX bit 16)
    bool avx512bw = false;   ///< cpuid bit alone (leaf 7, EBX bit 30)
    bool avx512vl = false;   ///< cpuid bit alone (leaf 7, EBX bit 31)
    /** XCR0 bits 5-7: the OS saves opmask and ZMM state. */
    bool zmmState = false;
    bool sha = false; ///< SHA-NI (leaf 7, EBX bit 29)
};

/** Cached cpuid probe (all-false on non-x86 builds). */
const CpuFeatures &cpuFeatures();

/**
 * Which GCM kernel width the dispatcher selected. Each tier needs
 * everything the one below it needs. kNone also keeps SHA-256 on its
 * portable compressor.
 */
enum class SimdTier
{
    kNone = 0,       ///< table-driven portable path
    kAesniClmul = 1, ///< 128-bit AES-NI + PCLMULQDQ
    kVaes = 2,       ///< 256-bit VAES + VPCLMULQDQ (AVX2)
    kVaes512 = 3,    ///< 512-bit VAES + VPCLMULQDQ (AVX-512F/BW/VL)
};

/**
 * The widest tier @p f can run: kAesniClmul needs AES-NI, PCLMULQDQ,
 * SSSE3 and SSE4.1; kVaes adds VAES, VPCLMULQDQ and AVX2 (with OS
 * YMM state); kVaes512 adds AVX-512F/BW/VL and the OS opmask/ZMM
 * state (XCR0 bits 5-7).
 */
SimdTier selectSimdTier(const CpuFeatures &f);

/**
 * Selected tier: selectSimdTier(cpuFeatures()) gated by
 * `CCAI_NO_SIMD` (any non-empty value other than "0" disables SIMD).
 * Cached after first call; the test override below bypasses the
 * cache.
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
