/**
 * @file
 * Deterministic pseudo-random source for the simulation. All
 * randomness in the system (workload sampling, nonces in tests) flows
 * through an explicitly-seeded Rng so runs are reproducible.
 */

#ifndef CCAI_SIM_RNG_HH
#define CCAI_SIM_RNG_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>

#include "common/types.hh"

namespace ccai::sim
{

/**
 * Global seed override for reproducible fuzz/soak runs.
 *
 * Priority: setSeedOverride() (the --seed flag) > the CCAI_SEED
 * environment variable > the caller's fallback. resolveSeed() logs
 * the effective seed the first time each distinct value is resolved,
 * so a CI failure is reproducible from the log line alone.
 */

/** Programmatic override (what --seed parses into). */
void setSeedOverride(std::optional<std::uint64_t> seed);

/** Active override: the programmatic one, else CCAI_SEED, else none. */
std::optional<std::uint64_t> seedOverride();

/** The seed a component should actually use, with startup logging. */
std::uint64_t resolveSeed(std::uint64_t fallback);

/**
 * Scan argv for "--seed N" / "--seed=N" and install the override.
 * @return true when a seed flag was consumed.
 */
bool applySeedFlag(int argc, char **argv);

/** FNV-1a hash for deriving per-component seeds from one root seed. */
std::uint64_t seedHash(const std::string &salt);

/**
 * Seedable 64-bit Mersenne source: the exact std::mt19937_64(seed)
 * stream, without its 2.5 KB state for short streams.
 *
 * The engine's first twist turns seed words x[j], x[j+1] and x[j+156]
 * into draw j (j < 156), where x[0] = seed and
 * x[i] = f * (x[i-1] ^ (x[i-1] >> 62)) + i with f = 6364136223846793005.
 * Rng walks that recurrence with two cursors, so construction does no
 * work and the first 156 draws need no state table. Draw 156, or a call to engine(), builds
 * the real engine out of line (seed, then discard the draws already
 * made), and every later draw comes from it.
 *
 * Rng is a uniform random bit generator with the engine's range, so
 * the standard distributions consume its draws exactly as they
 * consume the engine's. It is move-only.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x53C41u)
        : seed_(seed), lo_(seed), hi_(seed)
    {}

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit draw of the Mersenne stream. */
    result_type
    operator()()
    {
        if (engine_ || drawn_ >= kFirstTwist)
            return engine()();
        return seedDraw();
    }

    /** Uniform integer in [lo, hi]. */
    std::uint64_t
    uniform(std::uint64_t lo, std::uint64_t hi)
    {
        std::uniform_int_distribution<std::uint64_t> d(lo, hi);
        return d(*this);
    }

    /** Uniform double in [0, 1). */
    double
    uniform01()
    {
        std::uniform_real_distribution<double> d(0.0, 1.0);
        return d(*this);
    }

    /** Fill a buffer with pseudo-random bytes. */
    void
    fill(Bytes &out)
    {
        for (auto &b : out)
            b = static_cast<std::uint8_t>(uniform(0, 255));
    }

    /** Produce @p n pseudo-random bytes. */
    Bytes
    bytes(size_t n)
    {
        Bytes out(n);
        fill(out);
        return out;
    }

    /** The engine positioned at this stream's next draw; from here on
     * the stream and the engine advance together. */
    std::mt19937_64 &
    engine()
    {
        if (!engine_)
            buildEngine();
        return *engine_;
    }

  private:
    /** Draws the first twist makes from seed words alone (n - m). */
    static constexpr std::uint64_t kFirstTwist = 156;

    static std::uint64_t
    seedWord(std::uint64_t prev, std::uint64_t i)
    {
        return 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
    }

    /** Draw drawn_ (< kFirstTwist) from the seed recurrence, with
     * std::mt19937_64's twist (r = 31, a) and tempering constants. */
    result_type
    seedDraw()
    {
        if (drawn_ == 0)
            for (std::uint64_t i = 1; i <= kFirstTwist; ++i)
                hi_ = seedWord(hi_, i);
        const std::uint64_t next = seedWord(lo_, drawn_ + 1);
        const std::uint64_t y = (lo_ & ~0x7fffffffull) |
                                (next & 0x7fffffffull);
        std::uint64_t z = hi_ ^ (y >> 1) ^
                          ((y & 1) ? 0xb5026f5aa96619e9ull : 0);
        lo_ = next;
        hi_ = seedWord(hi_, drawn_ + kFirstTwist + 1);
        ++drawn_;
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        return z ^ (z >> 43);
    }

    void buildEngine();

    std::uint64_t seed_;
    /** x[drawn_] and x[drawn_ + 156] of the seed recurrence. */
    std::uint64_t lo_;
    std::uint64_t hi_;
    std::uint64_t drawn_ = 0;
    /** Built at draw kFirstTwist or on engine(); then authoritative. */
    std::unique_ptr<std::mt19937_64> engine_;
};

} // namespace ccai::sim

#endif // CCAI_SIM_RNG_HH
