/**
 * @file
 * Hyperparameter grid search scored by k-fold cross-validation,
 * matching the paper's training methodology (Section 5.1: k = 3
 * folds, sweeping criterion, max_depth and min_samples_leaf).
 */

#ifndef SADAPT_ML_CROSS_VALIDATION_HH
#define SADAPT_ML_CROSS_VALIDATION_HH

#include "ml/decision_tree.hh"

namespace sadapt {

class Rng;

/** Result of a hyperparameter search. */
struct GridSearchResult
{
    TreeParams best;
    double bestAccuracy = 0.0;

    /** Every evaluated point, for diagnostics. */
    std::vector<std::pair<TreeParams, double>> evaluated;
};

/**
 * Grid-search tree hyperparameters, scoring each point by its mean
 * held-out accuracy under k-fold cross-validation. The default grid is
 * the paper's swept set: both criteria, depths 2 -> 26 (x2 steps), and
 * min_samples_leaf in {1, 4, 16}.
 */
GridSearchResult gridSearchTree(const Dataset &data, std::size_t k,
                                Rng &rng);

} // namespace sadapt

#endif // SADAPT_ML_CROSS_VALIDATION_HH
