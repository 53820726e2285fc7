/**
 * @file
 * Random Forest regression (Breiman 2001), as used by the paper for
 * kernel performance and power prediction (Sec. IV-A3).
 *
 * Bootstrap-sampled CART trees with per-split feature subsetting; the
 * prediction is the mean over trees. Out-of-bag (OOB) predictions give
 * an unbiased generalization-error estimate without a holdout set.
 */

#pragma once

#include <optional>
#include <vector>

#include "ml/decision_tree.hpp"

namespace gpupm::exec {
class ThreadPool;
}

namespace gpupm::ml {

/** Forest hyper-parameters. */
struct ForestOptions
{
    /**
     * The smallest count whose held-out MAPE and Fig. 8/9 numbers are
     * no worse than 60 trees' (EXPERIMENTS.md, model-size sweep). Tree
     * t depends only on (seed, t), so an n-tree forest is the first n
     * trees of any larger one with the same seed.
     */
    int numTrees = 34;
    TreeOptions tree{};
    /** Bootstrap sample size as a fraction of the dataset. */
    double sampleFraction = 1.0;
    std::uint64_t seed = 0x5eedf0425ULL;
    /**
     * Worker threads for tree fitting (1 = serial, 0 = hardware
     * concurrency). Every bootstrap row set and per-tree rng stream is
     * drawn serially up front, so the fitted forest — including its
     * OOB predictions — is byte-identical at every value.
     */
    std::size_t jobs = 1;

    /** Defaults tuned on the training corpus (see bench_rf_accuracy). */
    static ForestOptions
    regressionDefaults()
    {
        ForestOptions o;
        o.tree.mtry = 8;
        return o;
    }
};

class RandomForest
{
  public:
    /** Fit the forest; deterministic in opts.seed (at any opts.jobs). */
    void fit(const Dataset &data, const ForestOptions &opts);

    /**
     * Fit on a caller-provided pool (opts.jobs is ignored; null pool =
     * serial). Lets several forests share one pool and fit
     * concurrently — the trainer fits the time and power forests this
     * way. Same determinism contract as the two-argument overload.
     */
    void fit(const Dataset &data, const ForestOptions &opts,
             exec::ThreadPool *pool);

    /** Mean prediction over all trees. */
    double predict(const FeatureVector &f) const;

    /**
     * Out-of-bag prediction per training row (rows that were in-bag for
     * every tree come back empty). Computed during fit.
     */
    const std::vector<std::optional<double>> &oobPredictions() const
    {
        return _oob;
    }

    /** Mean absolute percentage error of the OOB predictions. */
    double oobMape(const Dataset &data) const;

    std::size_t treeCount() const { return _trees.size(); }
    bool fitted() const { return !_trees.empty(); }

    /** Whether OOB predictions exist (absent on a load()ed forest). */
    bool hasOobData() const { return !_oob.empty(); }

    /** Read-only tree access (FlatForest compiles from it). */
    const std::vector<DecisionTree> &trees() const { return _trees; }

    /** Total node count across trees (memory/latency diagnostics). */
    std::size_t totalNodes() const;

    /**
     * Write the fitted forest ("forest trees <n>" plus each tree).
     * OOB predictions are training artifacts and are not persisted.
     */
    void save(std::ostream &os) const;

    /** Read a forest written by save(); fatal on malformed input. */
    static RandomForest load(std::istream &is);

  private:
    std::vector<DecisionTree> _trees;
    std::vector<std::optional<double>> _oob;
};

} // namespace gpupm::ml
