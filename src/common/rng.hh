/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the library (matrix generation, configuration
 * sampling, decision-tree training) flows through Rng so that experiments
 * are reproducible from a single seed. The generator is xoshiro256**, which
 * is fast, has a 256-bit state, and passes BigCrush.
 */

#ifndef SADAPT_COMMON_RNG_HH
#define SADAPT_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace sadapt {

/**
 * A small, fast, seedable PRNG (xoshiro256**) with convenience helpers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x5ADA9753u);

    /** @return the next raw 64-bit value. */
    std::uint64_t next();

    /** @return a uniform double in [0, 1). */
    double uniform();

    /** @return a uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return a uniform integer in [0, n). Requires n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** @return true with probability p. */
    bool chance(double p);

    /** @return a standard-normal variate (Box-Muller). */
    double gaussian();

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Sample k distinct indices from [0, n); panics when k > n. */
    std::vector<std::size_t> sampleIndices(std::size_t n, std::size_t k);

  private:
    std::uint64_t s[4];
    bool haveSpare = false;
    double spare = 0.0;
};

} // namespace sadapt

#endif // SADAPT_COMMON_RNG_HH
