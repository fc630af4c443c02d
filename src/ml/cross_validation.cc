#include "ml/cross_validation.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace sadapt {

namespace {

/** Mean held-out accuracy of a tree under k-fold cross-validation. */
double
crossValidateTree(const Dataset &data, const TreeParams &params,
                  std::size_t k, Rng &rng)
{
    SADAPT_ASSERT(data.size() >= k, "not enough data for k folds");
    auto folds = data.kFoldIndices(k, rng);
    double acc_sum = 0.0;
    for (std::size_t fold = 0; fold < k; ++fold) {
        std::vector<std::size_t> train_rows;
        for (std::size_t other = 0; other < k; ++other)
            if (other != fold)
                train_rows.insert(train_rows.end(),
                                  folds[other].begin(),
                                  folds[other].end());
        Dataset train = data.subset(train_rows);
        Dataset val = data.subset(folds[fold]);
        DecisionTreeClassifier tree;
        tree.fit(train, params);
        acc_sum += tree.accuracy(val);
    }
    return acc_sum / static_cast<double>(k);
}

} // namespace

GridSearchResult
gridSearchTree(const Dataset &data, std::size_t k, Rng &rng)
{
    GridSearchResult result;
    for (Criterion crit : {Criterion::Gini, Criterion::Entropy}) {
        for (std::uint32_t depth = 2; depth <= 26; depth *= 2) {
            for (std::uint32_t leaf : {1u, 4u, 16u}) {
                TreeParams p;
                p.criterion = crit;
                p.maxDepth = depth;
                p.minSamplesLeaf = leaf;
                const double acc = crossValidateTree(data, p, k, rng);
                result.evaluated.push_back({p, acc});
                if (acc > result.bestAccuracy) {
                    result.bestAccuracy = acc;
                    result.best = p;
                }
            }
        }
    }
    return result;
}

} // namespace sadapt
