/**
 * @file
 * SHA-256 (FIPS 180-4) with streaming interface, a keyed HMAC-SHA256
 * context, and a simple HKDF-style key derivation.
 *
 * Compression runs on SHA-NI where cpuid reports it and the SIMD
 * dispatch is enabled (simdTier() != kNone, so `CCAI_NO_SIMD=1` and
 * overrideSimdTierForTest(0) select the portable kernel). A hasher
 * picks its kernel at construction; copies keep it.
 */

#ifndef CCAI_CRYPTO_SHA256_HH
#define CCAI_CRYPTO_SHA256_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ccai::crypto
{

constexpr size_t kSha256DigestSize = 32;
constexpr size_t kSha256BlockSize = 64;

/** True when hashers constructed now compress with SHA-NI. */
bool sha256UsesShaNi();

/** Streaming SHA-256 hasher. */
class Sha256
{
  public:
    Sha256();

    /** Restore initial state. */
    void reset();

    /** Absorb @p len bytes; whole blocks compress straight from @p data. */
    void update(const std::uint8_t *data, size_t len);
    void update(const Bytes &data) { update(data.data(), data.size()); }

    /** Finish into @p out (kSha256DigestSize bytes), then reset. */
    void finalize(std::uint8_t *out);

    /** Finish and return the 32-byte digest, then reset. */
    Bytes finalize();

    /** One-shot convenience. */
    static Bytes digest(const Bytes &data);
    static Bytes digest(const std::string &data);

  private:
    using Compressor = void (*)(std::uint32_t *state,
                                const std::uint8_t *blocks,
                                size_t nblocks);

    Compressor compress_;
    std::array<std::uint32_t, 8> state_{};
    std::uint64_t totalLen_ = 0;
    std::uint8_t buffer_[kSha256BlockSize] = {};
    size_t bufferLen_ = 0;
};

/**
 * Keyed HMAC-SHA256 (RFC 2104). The constructor absorbs the ipad and
 * opad blocks once, so each mac() costs the message blocks plus one
 * outer block, with no heap traffic.
 */
class HmacSha256
{
  public:
    explicit HmacSha256(const Bytes &key = {});

    /** HMAC of a || b into @p out (kSha256DigestSize bytes). */
    void mac(const std::uint8_t *a, size_t aLen, const std::uint8_t *b,
             size_t bLen, std::uint8_t *out) const;

  private:
    Sha256 inner_; ///< has absorbed key ^ ipad
    Sha256 outer_; ///< has absorbed key ^ opad
};

/** HMAC-SHA256 (RFC 2104), one shot. */
Bytes hmacSha256(const Bytes &key, const Bytes &message);

/**
 * Derive @p length bytes of key material from input keying material,
 * salt and context info (HKDF-like extract+expand on HMAC-SHA256).
 */
Bytes kdf(const Bytes &ikm, const Bytes &salt, const std::string &info,
          size_t length);

} // namespace ccai::crypto

#endif // CCAI_CRYPTO_SHA256_HH
