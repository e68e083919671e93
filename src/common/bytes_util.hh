/**
 * @file
 * Helpers for byte-buffer manipulation: hex encode/decode, endian
 * load/store, and constant-size comparisons.
 */

#ifndef CCAI_COMMON_BYTES_UTIL_HH
#define CCAI_COMMON_BYTES_UTIL_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "types.hh"

namespace ccai
{

/** Encode a byte buffer as a lowercase hex string. */
std::string toHex(const Bytes &data);

/** Decode a hex string (whitespace tolerated) to bytes. */
Bytes fromHex(const std::string &hex);

/** Load a big-endian 32-bit word. */
std::uint32_t loadBe32(const std::uint8_t *p);

/** Store a big-endian 32-bit word. */
void storeBe32(std::uint8_t *p, std::uint32_t v);

/** Load a big-endian 64-bit word. */
std::uint64_t loadBe64(const std::uint8_t *p);

/** Store a big-endian 64-bit word. */
void storeBe64(std::uint8_t *p, std::uint64_t v);

/** Load a little-endian 32-bit word. */
std::uint32_t loadLe32(const std::uint8_t *p);

/** Store a little-endian 32-bit word. */
void storeLe32(std::uint8_t *p, std::uint32_t v);

/** Load a little-endian 64-bit word. */
std::uint64_t loadLe64(const std::uint8_t *p);

/** Store a little-endian 64-bit word. */
void storeLe64(std::uint8_t *p, std::uint64_t v);

/**
 * Timing-independent equality check (simulation-grade: avoids early
 * exit so that tag comparisons match real-hardware semantics).
 */
bool constantTimeEqual(const Bytes &a, const Bytes &b);
bool constantTimeEqual(const std::uint8_t *a, const std::uint8_t *b,
                       size_t len);

/** XOR b into a (sizes must match). */
void xorInto(Bytes &a, const Bytes &b);

} // namespace ccai

#endif // CCAI_COMMON_BYTES_UTIL_HH
