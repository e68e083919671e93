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
 * by sc::AesGcmShaEngine and the tvm/adaptor.hh constants). Seal and
 * open read a source and write a destination, equal for in place, so
 * the data-plane engines crypt while they copy. Where cpuid allows, one
 * stitched SIMD kernel (gcm_simd.hh) makes a single pass over the
 * payload, encrypting and hashing each block as it is loaded, so open
 * decrypts before the tag is known and, on a mismatch, applies the
 * keystream again: a failed open leaves the destination holding
 * exactly the ciphertext. The table path — a per-key 4-bit Shoup
 * GHASH table and 32-bit AES T-tables — stays as the reference and
 * the `CCAI_NO_SIMD=1` fallback, with the same contract.
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
     * Seal @p len bytes of plaintext from @p src into @p dst (equal
     * for in place, disjoint otherwise) and write the 16-byte tag to
     * @p tag.
     */
    void seal(const Bytes &iv, const std::uint8_t *src,
              std::uint8_t *dst, size_t len, const std::uint8_t *aad,
              size_t aadLen, std::uint8_t tag[kGcmTagSize]) const;

    /**
     * Open @p len bytes of ciphertext from @p src into @p dst (equal
     * for in place, disjoint otherwise). On a tag mismatch returns
     * false with @p dst holding exactly the ciphertext, never
     * plaintext.
     */
    bool open(const Bytes &iv, const std::uint8_t *src,
              std::uint8_t *dst, size_t len,
              const std::uint8_t tag[kGcmTagSize],
              const std::uint8_t *aad, size_t aadLen) const;

    /**
     * Parallel seal: splits the payload into @p width contiguous
     * block-aligned segments, each lane running the one-pass kernel
     * at the segment's counter offset with a segment-local GHASH; the
     * segment hashes are folded exactly (S = sum_k S_k * H^{n-e_k}),
     * so ciphertext and tag are bit-identical to the serial seal at
     * any width. Runs serially for width <= 1 or short payloads.
     */
    void seal(const Bytes &iv, const std::uint8_t *src,
              std::uint8_t *dst, size_t len, const std::uint8_t *aad,
              size_t aadLen, std::uint8_t tag[kGcmTagSize],
              WorkerPool &pool, int width) const;

    /** Parallel open; same decomposition and guarantees. */
    bool open(const Bytes &iv, const std::uint8_t *src,
              std::uint8_t *dst, size_t len,
              const std::uint8_t tag[kGcmTagSize],
              const std::uint8_t *aad, size_t aadLen, WorkerPool &pool,
              int width) const;

    /** seal() with @p data as both source and destination. */
    void
    sealInPlace(const Bytes &iv, std::uint8_t *data, size_t len,
                const std::uint8_t *aad, size_t aadLen,
                std::uint8_t tag[kGcmTagSize]) const
    {
        seal(iv, data, data, len, aad, aadLen, tag);
    }

    /** open() with @p data as both source and destination. */
    bool
    openInPlace(const Bytes &iv, std::uint8_t *data, size_t len,
                const std::uint8_t tag[kGcmTagSize],
                const std::uint8_t *aad, size_t aadLen) const
    {
        return open(iv, data, data, len, tag, aad, aadLen);
    }

  private:
    /**
     * One pass over @p len bytes: CTR-crypt @p src into @p dst from
     * @p counter and absorb the ciphertext (@p dst when @p encrypt,
     * @p src otherwise, a partial final block zero-padded) into the
     * GHASH accumulator held as two big-endian 64-bit halves.
     */
    void cryptHash(const Bytes &iv, std::uint32_t counter,
                   const std::uint8_t *src, std::uint8_t *dst,
                   size_t len, std::uint64_t &yh, std::uint64_t &yl,
                   bool encrypt) const;
    /** Table path: XOR the CTR keystream (from @p counter) into
     * @p src, writing @p dst. */
    void ctrApply(const Bytes &iv, const std::uint8_t *src,
                  std::uint8_t *dst, size_t len,
                  std::uint32_t counter) const;
    /** Absorb @p len bytes (zero-padded to blocks) into the GHASH
     * accumulator held as two big-endian 64-bit halves. */
    void ghashAbsorb(std::uint64_t &yh, std::uint64_t &yl,
                     const std::uint8_t *data, size_t len) const;
    /** Table-driven y <- y * H in GF(2^128). */
    void gmult(std::uint64_t &yh, std::uint64_t &yl) const;
    /** Tag = E_K(J0) xor GHASH, given the accumulator over
     * aad || ciphertext. */
    void finishTag(const Bytes &iv, std::uint64_t yh, std::uint64_t yl,
                   size_t aadLen, size_t len,
                   std::uint8_t tag[kGcmTagSize]) const;
    /** Open's tail: compare @p expect with @p tag in constant shape
     * and, on a mismatch, crypt @p dst back to ciphertext. */
    bool verifyOrRestore(const Bytes &iv, std::uint8_t *dst, size_t len,
                         const std::uint8_t expect[kGcmTagSize],
                         const std::uint8_t tag[kGcmTagSize]) const;

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
    /** cryptHash() over @p lanes block-aligned segments at once;
     * (yh, yl) enters holding the AAD hash and leaves holding the
     * hash of aad || ciphertext. */
    void cryptHashParallel(const Bytes &iv, const std::uint8_t *src,
                           std::uint8_t *dst, size_t len,
                           std::uint64_t &yh, std::uint64_t &yl,
                           bool encrypt, WorkerPool &pool,
                           int lanes) const;

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
    /** Runtime-dispatched SIMD kernel (not ready -> table path). */
    GcmSimdCtx simd_;
};

} // namespace ccai::crypto

#endif // CCAI_CRYPTO_GCM_HH
