#include "common/rng.hh"

#include <cassert>
#include <cmath>

#include "common/logging.hh"

namespace sadapt {

namespace {

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    assert(n > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = (~0ull / n) * n;
    std::uint64_t x;
    do {
        x = next();
    } while (x >= limit);
    return x % n;
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    assert(hi >= lo);
    return lo + static_cast<std::int64_t>(
        below(static_cast<std::uint64_t>(hi - lo) + 1));
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

double
Rng::gaussian()
{
    if (haveSpare) {
        haveSpare = false;
        return spare;
    }
    double u, v, sq;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        sq = u * u + v * v;
    } while (sq >= 1.0 || sq == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(sq) / sq);
    spare = v * mul;
    haveSpare = true;
    return u * mul;
}

std::vector<std::size_t>
Rng::sampleIndices(std::size_t n, std::size_t k)
{
    // Past the population, below(n - i) would reach below(0), whose
    // modulo divides by zero; a plain assert is compiled out of the
    // default RelWithDebInfo build.
    SADAPT_ASSERT(k <= n, str("cannot sample ", k, " distinct indices "
                              "from ", n));
    // Floyd's algorithm would be better for k << n, but sampled sets here
    // are small; a partial shuffle is simple and unbiased.
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i)
        all[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t j = i + below(n - i);
        std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
}

} // namespace sadapt
