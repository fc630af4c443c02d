/**
 * @file
 * Tests for the ML library: dataset handling, decision trees (the
 * predictive model of Section 4.3) and the cross-validated
 * hyperparameter grid search.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.hh"
#include "ml/cross_validation.hh"

using namespace sadapt;

namespace {

/** Axis-aligned two-class problem: label = x0 > 0.5. */
Dataset
axisProblem(std::size_t n, Rng &rng, double noise = 0.0)
{
    Dataset d({"x0", "x1"});
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform();
        const double x1 = rng.uniform();
        std::uint32_t label = x0 > 0.5 ? 1 : 0;
        if (noise > 0.0 && rng.chance(noise))
            label = 1 - label;
        d.add({x0, x1}, label);
    }
    return d;
}

/** XOR problem: linearly inseparable, easy for depth-2 trees. */
Dataset
xorProblem(std::size_t n, Rng &rng)
{
    Dataset d({"x0", "x1"});
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform();
        const double x1 = rng.uniform();
        d.add({x0, x1}, (x0 > 0.5) != (x1 > 0.5) ? 1u : 0u);
    }
    return d;
}

} // namespace

TEST(Dataset, AddAndAccess)
{
    Dataset d({"a", "b"});
    d.add({1.0, 2.0}, 0);
    d.add({3.0, 4.0}, 2);
    EXPECT_EQ(d.size(), 2u);
    EXPECT_EQ(d.numFeatures(), 2u);
    EXPECT_EQ(d.numClasses(), 3u);
    EXPECT_DOUBLE_EQ(d.features(1)[0], 3.0);
    EXPECT_EQ(d.label(1), 2u);
}

TEST(Dataset, SubsetSelectsRows)
{
    Dataset d({"a"});
    for (int i = 0; i < 5; ++i)
        d.add({static_cast<double>(i)}, i % 2);
    Dataset s = d.subset({4, 0});
    EXPECT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(s.features(0)[0], 4.0);
    EXPECT_DOUBLE_EQ(s.features(1)[0], 0.0);
}

TEST(Dataset, KFoldPartitionsAllRows)
{
    Rng rng(1);
    Dataset d({"a"});
    for (int i = 0; i < 17; ++i)
        d.add({static_cast<double>(i)}, 0);
    auto folds = d.kFoldIndices(3, rng);
    EXPECT_EQ(folds.size(), 3u);
    std::vector<bool> seen(17, false);
    for (const auto &f : folds)
        for (auto i : f) {
            EXPECT_FALSE(seen[i]);
            seen[i] = true;
        }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(DecisionTree, LearnsAxisAlignedSplit)
{
    Rng rng(2);
    Dataset train = axisProblem(400, rng);
    Dataset test = axisProblem(200, rng);
    DecisionTreeClassifier tree;
    tree.fit(train, TreeParams{});
    EXPECT_GT(tree.accuracy(test), 0.95);
}

TEST(DecisionTree, LearnsXor)
{
    Rng rng(3);
    Dataset train = xorProblem(800, rng);
    Dataset test = xorProblem(200, rng);
    DecisionTreeClassifier tree;
    tree.fit(train, TreeParams{});
    EXPECT_GT(tree.accuracy(test), 0.9);
}

TEST(DecisionTree, DepthLimitRespected)
{
    Rng rng(4);
    Dataset train = xorProblem(500, rng);
    TreeParams p;
    p.maxDepth = 3;
    DecisionTreeClassifier tree;
    tree.fit(train, p);
    EXPECT_LE(tree.depth(), 3u);
}

TEST(DecisionTree, DepthOneCannotLearnXor)
{
    Rng rng(5);
    Dataset train = xorProblem(500, rng);
    TreeParams p;
    p.maxDepth = 1;
    DecisionTreeClassifier tree;
    tree.fit(train, p);
    EXPECT_LT(tree.accuracy(train), 0.65);
}

TEST(DecisionTree, MinSamplesLeafPrunes)
{
    Rng rng(6);
    Dataset train = axisProblem(300, rng, 0.15);
    TreeParams loose, strict;
    strict.minSamplesLeaf = 40;
    DecisionTreeClassifier a, b;
    a.fit(train, loose);
    b.fit(train, strict);
    EXPECT_LT(b.nodeCount(), a.nodeCount());
}

TEST(DecisionTree, FeatureImportanceIdentifiesSignal)
{
    Rng rng(7);
    Dataset train = axisProblem(500, rng); // only x0 matters
    DecisionTreeClassifier tree;
    tree.fit(train, TreeParams{});
    auto imp = tree.featureImportance();
    ASSERT_EQ(imp.size(), 2u);
    EXPECT_GT(imp[0], 0.9);
    EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
}

TEST(DecisionTree, EntropyCriterionAlsoLearns)
{
    Rng rng(8);
    Dataset train = axisProblem(300, rng);
    TreeParams p;
    p.criterion = Criterion::Entropy;
    DecisionTreeClassifier tree;
    tree.fit(train, p);
    EXPECT_GT(tree.accuracy(train), 0.95);
}

TEST(DecisionTree, PureNodeBecomesLeaf)
{
    Dataset d({"x"});
    d.add({1.0}, 1);
    d.add({2.0}, 1);
    DecisionTreeClassifier tree;
    tree.fit(d, TreeParams{});
    EXPECT_EQ(tree.nodeCount(), 1u);
    EXPECT_EQ(tree.predict(std::vector<double>{5.0}), 1u);
}

TEST(DecisionTree, SaveLoadRoundTrip)
{
    Rng rng(9);
    Dataset train = xorProblem(300, rng);
    Dataset test = xorProblem(100, rng);
    DecisionTreeClassifier tree;
    tree.fit(train, TreeParams{});
    std::stringstream buf;
    tree.save(buf);
    DecisionTreeClassifier loaded = DecisionTreeClassifier::load(buf);
    EXPECT_EQ(loaded.nodeCount(), tree.nodeCount());
    for (std::size_t r = 0; r < test.size(); ++r)
        EXPECT_EQ(loaded.predict(test.features(r)),
                  tree.predict(test.features(r)));
}

TEST(DecisionTreeDeathTest, LoadRejectsGarbage)
{
    std::istringstream in("nonsense 1 2");
    EXPECT_EXIT(DecisionTreeClassifier::load(in),
                testing::ExitedWithCode(1), "malformed header");
}

TEST(CrossValidation, GridSearchPrefersDeeperTreesForXor)
{
    Rng rng(17);
    Dataset d = xorProblem(400, rng);
    auto result = gridSearchTree(d, 3, rng);
    EXPECT_GE(result.best.maxDepth, 2u);
    EXPECT_GT(result.bestAccuracy, 0.85);
    EXPECT_FALSE(result.evaluated.empty());
    // Every grid point is scored by a mean held-out accuracy.
    for (const auto &[params, acc] : result.evaluated) {
        EXPECT_GE(acc, 0.0);
        EXPECT_LE(acc, 1.0);
    }
}
