#include "rng.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"

namespace ccai::sim
{

namespace
{

std::optional<std::uint64_t> &
overrideSlot()
{
    static std::optional<std::uint64_t> slot;
    return slot;
}

std::optional<std::uint64_t>
parseSeed(const char *text)
{
    if (!text || !*text)
        return std::nullopt;
    char *end = nullptr;
    // Base 0: accepts decimal and 0x-prefixed hex seeds.
    std::uint64_t value = std::strtoull(text, &end, 0);
    if (end == text || (end && *end != '\0')) {
        warn("rng: ignoring unparsable seed '%s'", text);
        return std::nullopt;
    }
    return value;
}

/**
 * CCAI_SEED parsing is strict where the --seed flag is lenient: a
 * malformed environment seed silently falling back would replay a
 * different schedule than the operator asked for, which is exactly
 * the failure reproduction the variable exists to prevent.
 */
std::optional<std::uint64_t>
parseEnvSeed(const char *text)
{
    if (!text)
        return std::nullopt; // unset: use the caller's fallback
    if (!*text)
        fatal("rng: CCAI_SEED is set but empty");
    errno = 0;
    char *end = nullptr;
    std::uint64_t value = std::strtoull(text, &end, 0);
    if (errno == ERANGE)
        fatal("rng: CCAI_SEED '%s' overflows 64 bits", text);
    if (end == text)
        fatal("rng: CCAI_SEED '%s' is not a number", text);
    if (*end != '\0')
        fatal("rng: CCAI_SEED '%s' has trailing garbage", text);
    return value;
}

} // namespace

void
setSeedOverride(std::optional<std::uint64_t> seed)
{
    overrideSlot() = seed;
}

std::optional<std::uint64_t>
seedOverride()
{
    if (overrideSlot().has_value())
        return overrideSlot();
    return parseEnvSeed(std::getenv("CCAI_SEED"));
}

std::uint64_t
resolveSeed(std::uint64_t fallback)
{
    std::optional<std::uint64_t> override = seedOverride();
    std::uint64_t effective = override.value_or(fallback);

    // One log line per distinct effective seed: enough to reproduce
    // a CI fuzz failure without spamming per-Platform construction.
    static std::uint64_t last_logged = ~std::uint64_t(0);
    static bool logged_any = false;
    if (!logged_any || last_logged != effective) {
        inform("rng: seed=%llu (0x%llx, %s)",
               (unsigned long long)effective,
               (unsigned long long)effective,
               override ? "override" : "default");
        last_logged = effective;
        logged_any = true;
    }
    return effective;
}

bool
applySeedFlag(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--seed=", 7) == 0) {
            if (auto v = parseSeed(arg + 7)) {
                setSeedOverride(v);
                return true;
            }
            return false;
        }
        if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
            if (auto v = parseSeed(argv[i + 1])) {
                setSeedOverride(v);
                return true;
            }
            return false;
        }
    }
    return false;
}

void
Rng::buildEngine()
{
    engine_ = std::make_unique<std::mt19937_64>(seed_);
    engine_->discard(drawn_);
}

std::uint64_t
seedHash(const std::string &salt)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : salt) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace ccai::sim
