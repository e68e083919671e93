/**
 * @file
 * sim::Rng against std::mt19937_64: raw draws, a move, the standard
 * distributions, and the engine() hand-off must read the exact
 * Mersenne stream across both sides of the first twist (draw 156)
 * and of the second (draw 312), for seeds at both ends of the range.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <type_traits>
#include <vector>

#include "sim/rng.hh"

using namespace ccai::sim;

namespace
{

constexpr std::uint64_t kSeeds[] = {0, 1, 0x53C41, ~0ull,
                                    0x9E3779B97F4A7C15ull};
constexpr std::size_t kDraws[] = {0,   1,   2,   155, 156,
                                  157, 311, 312, 313, 1000};

/** Counts mismatches and names the first few. */
struct Tally
{
    std::uint64_t mismatches = 0;
    std::ostringstream first;

    template <typename T>
    void
    check(bool same, const char *what, std::uint64_t seed,
          std::size_t n, std::size_t i, T got, T want)
    {
        if (same)
            return;
        if (mismatches++ < 5)
            first << what << " seed=" << seed << " n=" << n
                  << " i=" << i << ": " << got << " != " << want
                  << "\n";
    }
};

} // namespace

TEST(Rng, MatchesStdMersenneStream)
{
    static_assert(!std::is_copy_constructible_v<Rng>);
    EXPECT_LE(sizeof(Rng), 64u);

    Tally t;
    for (std::uint64_t seed : kSeeds) {
        for (std::size_t n : kDraws) {
            // Raw draws, then a tail from a moved-to Rng.
            {
                Rng rng(seed);
                std::mt19937_64 ref(seed);
                for (std::size_t i = 0; i < n; ++i) {
                    const std::uint64_t got = rng(), want = ref();
                    t.check(got == want, "raw", seed, n, i, got, want);
                }
                Rng moved(std::move(rng));
                for (std::size_t i = 0; i < 4; ++i) {
                    const std::uint64_t got = moved(), want = ref();
                    t.check(got == want, "moved", seed, n, i, got, want);
                }
            }
            // Distributions interleaved: small and full integer
            // ranges (the latter rejection-free, one draw each) and
            // canonical doubles.
            {
                Rng rng(seed);
                std::mt19937_64 ref(seed);
                for (std::size_t i = 0; i < n; ++i) {
                    if (i % 3 == 2) {
                        std::uniform_real_distribution<double> d(0.0,
                                                                 1.0);
                        const double got = rng.uniform01();
                        const double want = d(ref);
                        t.check(got == want, "uniform01", seed, n, i,
                                got, want);
                        continue;
                    }
                    const std::uint64_t hi = i % 3 ? ~0ull : i;
                    std::uniform_int_distribution<std::uint64_t> d(0,
                                                                   hi);
                    const std::uint64_t got = rng.uniform(0, hi);
                    const std::uint64_t want = d(ref);
                    t.check(got == want, "uniform", seed, n, i, got,
                            want);
                }
            }
            // n draws, then hand the engine to std::shuffle; draws
            // after the hand-off continue from the engine.
            {
                Rng rng(seed);
                std::mt19937_64 ref(seed);
                for (std::size_t i = 0; i < n; ++i) {
                    rng();
                    ref();
                }
                std::vector<int> got(40), want(40);
                std::iota(got.begin(), got.end(), 0);
                std::iota(want.begin(), want.end(), 0);
                std::shuffle(got.begin(), got.end(), rng.engine());
                std::shuffle(want.begin(), want.end(), ref);
                t.check(got == want, "shuffle", seed, n, 0, got[0],
                        want[0]);
                for (std::size_t i = 0; i < 4; ++i) {
                    const std::uint64_t g = rng(), w = ref();
                    t.check(g == w, "after engine()", seed, n, i, g, w);
                }
            }
        }
    }
    EXPECT_EQ(t.mismatches, 0u) << t.first.str();
}
