#include "bytes_util.hh"

#include <cctype>

#include "logging.hh"

namespace ccai
{

std::string
toHex(const Bytes &data)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(data.size() * 2);
    for (std::uint8_t b : data) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

namespace
{

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

Bytes
fromHex(const std::string &hex)
{
    Bytes out;
    out.reserve(hex.size() / 2);
    int hi = -1;
    for (char c : hex) {
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        int nib = hexNibble(c);
        if (nib < 0)
            fatal("fromHex: invalid hex character '%c'", c);
        if (hi < 0) {
            hi = nib;
        } else {
            out.push_back(static_cast<std::uint8_t>((hi << 4) | nib));
            hi = -1;
        }
    }
    if (hi >= 0)
        fatal("fromHex: odd number of hex digits");
    return out;
}

std::uint32_t
loadBe32(const std::uint8_t *p)
{
    return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

void
storeBe32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

std::uint64_t
loadBe64(const std::uint8_t *p)
{
    return (std::uint64_t(loadBe32(p)) << 32) | loadBe32(p + 4);
}

void
storeBe64(std::uint8_t *p, std::uint64_t v)
{
    storeBe32(p, static_cast<std::uint32_t>(v >> 32));
    storeBe32(p + 4, static_cast<std::uint32_t>(v));
}

std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint32_t
loadLe32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

void
storeLe32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        p[i] = static_cast<std::uint8_t>(v);
        v >>= 8;
    }
}

void
storeLe64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        p[i] = static_cast<std::uint8_t>(v);
        v >>= 8;
    }
}

bool
constantTimeEqual(const Bytes &a, const Bytes &b)
{
    return a.size() == b.size() &&
           constantTimeEqual(a.data(), b.data(), a.size());
}

bool
constantTimeEqual(const std::uint8_t *a, const std::uint8_t *b, size_t len)
{
    std::uint8_t diff = 0;
    for (size_t i = 0; i < len; ++i)
        diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    return diff == 0;
}

void
xorInto(Bytes &a, const Bytes &b)
{
    ccai_assert(a.size() == b.size());
    for (size_t i = 0; i < a.size(); ++i)
        a[i] ^= b[i];
}

} // namespace ccai
