/**
 * @file
 * Fixed 256-bit unsigned integer used by the trust establishment
 * protocols (Diffie-Hellman key exchange and Schnorr-style
 * attestation signatures). Supports the handful of operations
 * modular exponentiation needs, modulo m = 2^256 - c for a c below
 * 2^64: the DH group prime p = 2^256 - 189 and its exponent order
 * p - 1 = 2^256 - 190.
 */

#ifndef CCAI_CRYPTO_BIGINT_HH
#define CCAI_CRYPTO_BIGINT_HH

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ccai::crypto
{

/**
 * Unsigned 256-bit integer, four little-endian 64-bit limbs, no heap.
 * Every reduction is one fold: since 2^256 = c (mod m), the high half
 * of a 512-bit product times c is added to the low half, twice, and m
 * is subtracted at most once. A 256-bit modexp is ~400 such steps,
 * tens of microseconds; Montgomery form is not used because it cannot
 * reduce modulo the even p - 1.
 */
class BigInt
{
  public:
    BigInt() = default;
    BigInt(std::uint64_t v) : limbs_{v, 0, 0, 0} {}

    /** Parse big-endian bytes; fatal() above 32 significant bytes. */
    static BigInt fromBytes(const Bytes &be);

    /** Parse a hex string (big-endian). */
    static BigInt fromHexString(const std::string &hex);

    /** Serialize to big-endian bytes, optionally zero-padded. */
    Bytes toBytes(size_t pad_to = 0) const;

    std::string toHexString() const;

    bool isZero() const { return *this == BigInt(); }
    size_t bitLength() const;

    bool operator==(const BigInt &o) const = default;
    std::strong_ordering operator<=>(const BigInt &o) const;

    // The modulus m of every operation below must be 2^256 - c with
    // 0 < c < 2^64; operands may be any 256-bit value.

    /** this mod m */
    BigInt mod(const BigInt &m) const;
    /** (this + o) mod m */
    BigInt addMod(const BigInt &o, const BigInt &m) const;
    /** (this * o) mod m */
    BigInt mulMod(const BigInt &o, const BigInt &m) const;
    /** this^e mod m via square-and-multiply. */
    BigInt powMod(const BigInt &e, const BigInt &m) const;

  private:
    std::array<std::uint64_t, 4> limbs_{}; ///< little-endian
};

} // namespace ccai::crypto

#endif // CCAI_CRYPTO_BIGINT_HH
