/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hh"

using namespace sadapt;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(3);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(10));
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsApproximatelyStandard)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, SampleIndicesDistinctAndInRange)
{
    Rng rng(17);
    auto idx = rng.sampleIndices(100, 30);
    EXPECT_EQ(idx.size(), 30u);
    std::set<std::size_t> uniq(idx.begin(), idx.end());
    EXPECT_EQ(uniq.size(), 30u);
    for (auto i : idx)
        EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesFullPopulation)
{
    Rng rng(19);
    auto idx = rng.sampleIndices(16, 16);
    std::sort(idx.begin(), idx.end());
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(idx[i], i);
}

TEST(RngDeathTest, SampleIndicesPastThePopulationPanics)
{
    Rng rng(19);
    EXPECT_DEATH(rng.sampleIndices(10, 20),
                 "cannot sample 20 distinct indices from 10");
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(23);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(29);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}
