#include "bigint.hh"

#include <algorithm>
#include <bit>

#include "common/bytes_util.hh"
#include "common/logging.hh"

namespace ccai::crypto
{

namespace
{

using Limbs = std::array<std::uint64_t, 4>;
using Wide = std::array<std::uint64_t, 8>; ///< a 512-bit intermediate
using u128 = unsigned __int128;

/** r += k; returns the carry out of 2^256. */
std::uint64_t
addSmall(Limbs &r, u128 k)
{
    for (auto &limb : r) {
        k += limb;
        limb = static_cast<std::uint64_t>(k);
        k >>= 64;
    }
    return static_cast<std::uint64_t>(k);
}

/**
 * x mod m for m = 2^256 - c. Since 2^256 = c (mod m), the high half
 * folds down as hi * c; two folds leave a value below 2^256, and one
 * conditional subtraction of m finishes.
 */
Limbs
fold(const Wide &x, const Limbs &m)
{
    ccai_assert(m[0] != 0 && m[1] == ~0ull && m[2] == ~0ull &&
                m[3] == ~0ull);
    const std::uint64_t c = ~m[0] + 1;

    // lo + hi * c: a 320-bit sum whose fifth limb is left in acc.
    Limbs r;
    u128 acc = 0;
    for (size_t i = 0; i < 4; ++i) {
        acc += u128(x[i + 4]) * c + x[i];
        r[i] = static_cast<std::uint64_t>(acc);
        acc >>= 64;
    }
    // Fold that limb the same way. A carry out of 2^256 leaves r below
    // 2^128, so folding the carry (one more c) cannot carry again.
    std::uint64_t carry = addSmall(r, acc * c);
    addSmall(r, u128(carry) * c);
    // r >= m exactly when r + c carries out of 2^256, and then
    // r - m = r + c - 2^256.
    Limbs s = r;
    return addSmall(s, c) ? s : r;
}

/** Schoolbook 256 x 256 -> 512-bit product. */
Wide
mulWide(const Limbs &a, const Limbs &b)
{
    Wide t{};
    for (size_t i = 0; i < 4; ++i) {
        u128 acc = 0;
        for (size_t j = 0; j < 4; ++j) {
            acc += u128(a[i]) * b[j] + t[i + j];
            t[i + j] = static_cast<std::uint64_t>(acc);
            acc >>= 64;
        }
        t[i + 4] = static_cast<std::uint64_t>(acc);
    }
    return t;
}

} // namespace

BigInt
BigInt::fromBytes(const Bytes &be)
{
    size_t lead = 0;
    while (lead < be.size() && be[lead] == 0)
        ++lead;
    const size_t n = be.size() - lead;
    if (n > 32)
        fatal("BigInt::fromBytes: %zu significant bytes exceed 256 bits",
              n);
    BigInt out;
    for (size_t i = 0; i < n; ++i) // i-th byte from the least significant
        out.limbs_[i / 8] |= std::uint64_t(be[be.size() - 1 - i])
                             << (8 * (i % 8));
    return out;
}

BigInt
BigInt::fromHexString(const std::string &hex)
{
    std::string padded = hex;
    if (padded.size() % 2)
        padded.insert(padded.begin(), '0');
    return fromBytes(fromHex(padded));
}

Bytes
BigInt::toBytes(size_t pad_to) const
{
    const size_t n = (bitLength() + 7) / 8;
    Bytes out(std::max({n, pad_to, size_t(1)}), 0);
    for (size_t i = 0; i < n; ++i)
        out[out.size() - 1 - i] =
            static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
    return out;
}

std::string
BigInt::toHexString() const
{
    return toHex(toBytes());
}

size_t
BigInt::bitLength() const
{
    for (size_t i = limbs_.size(); i-- > 0;) {
        if (limbs_[i])
            return 64 * i + std::bit_width(limbs_[i]);
    }
    return 0;
}

std::strong_ordering
BigInt::operator<=>(const BigInt &o) const
{
    for (size_t i = limbs_.size(); i-- > 0;) {
        if (limbs_[i] != o.limbs_[i])
            return limbs_[i] <=> o.limbs_[i];
    }
    return std::strong_ordering::equal;
}

BigInt
BigInt::mod(const BigInt &m) const
{
    Wide x{};
    std::copy(limbs_.begin(), limbs_.end(), x.begin());
    BigInt out;
    out.limbs_ = fold(x, m.limbs_);
    return out;
}

BigInt
BigInt::addMod(const BigInt &o, const BigInt &m) const
{
    Wide x{};
    u128 acc = 0;
    for (size_t i = 0; i < 4; ++i) {
        acc += u128(limbs_[i]) + o.limbs_[i];
        x[i] = static_cast<std::uint64_t>(acc);
        acc >>= 64;
    }
    x[4] = static_cast<std::uint64_t>(acc);
    BigInt out;
    out.limbs_ = fold(x, m.limbs_);
    return out;
}

BigInt
BigInt::mulMod(const BigInt &o, const BigInt &m) const
{
    BigInt out;
    out.limbs_ = fold(mulWide(limbs_, o.limbs_), m.limbs_);
    return out;
}

BigInt
BigInt::powMod(const BigInt &e, const BigInt &m) const
{
    const BigInt base = mod(m);
    BigInt result(1);
    for (size_t i = e.bitLength(); i-- > 0;) {
        result = result.mulMod(result, m);
        if ((e.limbs_[i / 64] >> (i % 64)) & 1)
            result = result.mulMod(base, m);
    }
    return result;
}

} // namespace ccai::crypto
