/**
 * @file
 * AES-GCM authenticated encryption (NIST SP 800-38D) built on the AES
 * block cipher: CTR-mode keystream plus GHASH authentication.
 *
 * This is the algorithm the paper's PCIe-SC AES-GCM-SHA engine and
 * the TVM-side Adaptor both run; having one shared functional
 * implementation lets tests check that what the Adaptor encrypts, the
 * PCIe-SC decrypts bit-exactly (and vice versa for results).
 *
 * The implementation is throughput-oriented (this is the wall-clock
 * hot path of every A2 chunk; simulated time is modelled separately
 * by sc::AesGcmShaEngine / tvm::AdaptorTiming): GHASH runs on a
 * per-key 4-bit Shoup table precomputed at construction, AES rounds
 * are 32-bit T-tables, and the CTR keystream is generated in batches
 * straight from register-held counter words. The span/in-place
 * seal/open entry points let the data-plane engines encrypt and
 * decrypt without round-tripping payloads through extra Bytes
 * copies.
 */

#ifndef CCAI_CRYPTO_GCM_HH
#define CCAI_CRYPTO_GCM_HH

#include <cstdint>
#include <optional>

#include "crypto/aes.hh"
#include "crypto/gcm_simd.hh"

namespace ccai::crypto
{

class WorkerPool;

constexpr size_t kGcmTagSize = 16;
constexpr size_t kGcmIvSize = 12;

/**
 * Payloads shorter than this run serially even when a pool is
 * offered: below it the dispatch overhead exceeds the crypto.
 */
constexpr size_t kGcmParallelMinBytes = 16 * 1024;

/** Output of an AEAD seal operation. */
struct Sealed
{
    Bytes ciphertext;
    Bytes tag; ///< 16-byte authentication tag.
};

/**
 * AES-GCM context bound to one key. The 96-bit IV is supplied per
 * operation; callers (the workload key manager) are responsible for
 * never reusing an IV under the same key.
 */
class AesGcm
{
  public:
    explicit AesGcm(const Bytes &key);

    /**
     * Encrypt and authenticate.
     *
     * @param iv 12-byte initialization vector.
     * @param plaintext data to protect.
     * @param aad additional authenticated (but not encrypted) data;
     *            ccAI binds packet-header attributes here.
     */
    Sealed seal(const Bytes &iv, const Bytes &plaintext,
                const Bytes &aad = {}) const;

    /**
     * Verify and decrypt. Returns std::nullopt when the tag check
     * fails (tampered ciphertext, wrong AAD, or wrong IV).
     */
    std::optional<Bytes> open(const Bytes &iv, const Bytes &ciphertext,
                              const Bytes &tag,
                              const Bytes &aad = {}) const;

    /**
     * In-place seal: encrypts @p data (length @p len) in place and
     * writes the 16-byte tag to @p tag. Equivalent to seal() without
     * the ciphertext copy.
     */
    void sealInPlace(const Bytes &iv, std::uint8_t *data, size_t len,
                     const std::uint8_t *aad, size_t aadLen,
                     std::uint8_t tag[kGcmTagSize]) const;

    /**
     * In-place open: verifies @p tag over the ciphertext in
     * @p data and, on success, decrypts it in place. On failure
     * returns false and leaves @p data untouched (still ciphertext).
     */
    bool openInPlace(const Bytes &iv, std::uint8_t *data, size_t len,
                     const std::uint8_t tag[kGcmTagSize],
                     const std::uint8_t *aad, size_t aadLen) const;

    /**
     * Parallel in-place seal: splits the payload into @p width
     * contiguous block-aligned segments, each lane running CTR at
     * the segment's counter offset plus a segment-local GHASH; the
     * segment hashes are folded exactly (S = sum_k S_k * H^{n-e_k}),
     * so the tag is bit-identical to the serial sealInPlace at any
     * width. Falls back to serial for width <= 1 or short payloads.
     */
    void sealInPlace(const Bytes &iv, std::uint8_t *data, size_t len,
                     const std::uint8_t *aad, size_t aadLen,
                     std::uint8_t tag[kGcmTagSize], WorkerPool &pool,
                     int width) const;

    /** Parallel in-place open; same decomposition and guarantees. */
    bool openInPlace(const Bytes &iv, std::uint8_t *data, size_t len,
                     const std::uint8_t tag[kGcmTagSize],
                     const std::uint8_t *aad, size_t aadLen,
                     WorkerPool &pool, int width) const;

  private:
    /** XOR the CTR keystream (starting at @p counter) into @p data. */
    void ctrApply(const Bytes &iv, std::uint8_t *data, size_t len,
                  std::uint32_t counter) const;
    /** Absorb @p len bytes (zero-padded to blocks) into the GHASH
     * accumulator held as two big-endian 64-bit halves. */
    void ghashAbsorb(std::uint64_t &yh, std::uint64_t &yl,
                     const std::uint8_t *data, size_t len) const;
    /** Table-driven y <- y * H in GF(2^128). */
    void gmult(std::uint64_t &yh, std::uint64_t &yl) const;
    /** Full GHASH + E_K(J0) tag computation over aad || ct. */
    void computeTag(const Bytes &iv, const std::uint8_t *ct, size_t len,
                    const std::uint8_t *aad, size_t aadLen,
                    std::uint8_t tag[kGcmTagSize]) const;

    /** Lanes a parallel op over @p len bytes should use (1 = run
     * the serial path). */
    static int parallelLanes(size_t len, int width);
    /** Generic z <- x * y in the GHASH field (bit-reflected
     * convention, reduction by 0xe1 << 120). */
    static void gf128Mul(std::uint64_t xh, std::uint64_t xl,
                         std::uint64_t yh, std::uint64_t yl,
                         std::uint64_t &zh, std::uint64_t &zl);
    /** (ph, pl) <- H^t by square-and-multiply. */
    void hPower(std::uint64_t t, std::uint64_t &ph,
                std::uint64_t &pl) const;
    /** Parallel CTR over block-aligned lane ranges. */
    void ctrApplyParallel(const Bytes &iv, std::uint8_t *data,
                          size_t len, WorkerPool &pool,
                          int lanes) const;
    /** Parallel GHASH + E_K(J0) via exact segment folding. */
    void computeTagParallel(const Bytes &iv, const std::uint8_t *ct,
                            size_t len, const std::uint8_t *aad,
                            size_t aadLen,
                            std::uint8_t tag[kGcmTagSize],
                            WorkerPool &pool, int lanes) const;

    Aes aes_;
    /** 4-bit Shoup table for GHASH: hh_[i]/hl_[i] hold the high and
     * low 64-bit halves of (i as a 4-bit coefficient) * H. */
    std::uint64_t hh_[16];
    std::uint64_t hl_[16];
    /** Squaring ladder hp2*_[i] = H^(2^i), so hPower() is popcount
     * multiplies instead of square-and-multiply from scratch. Part
     * of the read-only shared cipher state workers use lock-free. */
    static constexpr int kHPowLadder = 48;
    std::uint64_t hp2h_[kHPowLadder];
    std::uint64_t hp2l_[kHPowLadder];
    /** Runtime-dispatched SIMD kernels (ready=false -> table path). */
    GcmSimdCtx simd_;
};

} // namespace ccai::crypto

#endif // CCAI_CRYPTO_GCM_HH
