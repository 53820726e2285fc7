/**
 * @file
 * CART regression tree (variance-reduction splits).
 *
 * Building block of the Random Forest (Breiman 2001) the paper uses for
 * kernel performance and power prediction. Supports per-split random
 * feature subsetting (mtry) and row subsets, so the forest can drive
 * bagging and feature bagging from outside.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ml/features.hpp"

namespace gpupm::ml {

/** Training data: row-major features plus one target per row. */
struct Dataset
{
    std::vector<FeatureVector> x;
    std::vector<double> y;

    std::size_t size() const { return x.size(); }
    void
    add(const FeatureVector &features, double target)
    {
        x.push_back(features);
        y.push_back(target);
    }
};

/**
 * Per-feature sorted row orders of a dataset, computed once and shared
 * read-only by every tree fitted on it. Each feature's order holds the
 * dataset's row indices sorted by (value, row); a tree derives its
 * bootstrap orders from this by a linear filtering pass instead of
 * sorting — the sort cost is paid once per dataset, not once per tree
 * (let alone once per node, as the legacy scan does). The transposed
 * feature columns ride along so split sweeps read values from a dense
 * per-feature array instead of striding through the row-major dataset.
 */
struct DatasetOrder
{
    /** Feature-major sorted row indices: rows() entries per feature. */
    std::vector<std::uint32_t> sorted;
    /** Feature-major transposed values: columns[f][row]. */
    std::vector<double> columns;

    static DatasetOrder build(const Dataset &data);

    std::size_t rows() const { return _rows; }
    const std::uint32_t *feature(int f) const
    {
        return sorted.data() + static_cast<std::size_t>(f) * _rows;
    }
    const double *column(int f) const
    {
        return columns.data() + static_cast<std::size_t>(f) * _rows;
    }

  private:
    std::size_t _rows = 0;
};

/** Tree growth hyper-parameters. */
struct TreeOptions
{
    int maxDepth = 16;
    int minSamplesLeaf = 3;
    int minSamplesSplit = 6;
    /** Features tried per split; <=0 means all features. */
    int mtry = 0;
    /**
     * Test hook: use the legacy per-node-sort split scan instead of
     * the presorted engine (TreeBuilder). Both paths are specified to
     * produce bit-identical trees — ties visit in canonical row order,
     * sums accumulate in the same sequence — and the equivalence is
     * pinned by fuzz tests; the legacy scan is kept compiled in only
     * as that reference.
     */
    bool legacySplitScan = false;
};

/**
 * Regression tree with array-packed nodes for cache-friendly inference.
 */
class DecisionTree
{
  public:
    /**
     * Fit on the rows of @p data selected by @p rows (duplicates allowed,
     * as produced by bootstrap sampling; order is irrelevant — rows are
     * canonicalized to ascending order before fitting). @p rng drives
     * feature subsetting when opts.mtry > 0.
     */
    void fit(const Dataset &data, std::span<const std::uint32_t> rows,
             const TreeOptions &opts, Pcg32 &rng);

    /**
     * Same, with a precomputed DatasetOrder for @p data. The forest
     * passes one shared order so no tree ever sorts; the four-argument
     * overload builds a private one per call. The fitted tree is
     * identical either way.
     */
    void fit(const Dataset &data, std::span<const std::uint32_t> rows,
             const TreeOptions &opts, Pcg32 &rng,
             const DatasetOrder *order);

    /** Predict one sample; fatal if the tree has not been fitted. */
    double predict(const FeatureVector &f) const;

    /** Number of nodes (diagnostics). */
    std::size_t nodeCount() const { return _nodes.size(); }

    /** Maximum depth reached (diagnostics). */
    int depth() const { return _depth; }

    bool fitted() const { return !_nodes.empty(); }

    /** Write the fitted tree ("tree <n> <depth>" plus one node/line). */
    void save(std::ostream &os) const;

    /**
     * Read a tree written by save(); fatal on malformed input,
     * including child links that do not reach every node exactly once
     * from node 0.
     */
    static DecisionTree load(std::istream &is);

    struct Node
    {
        std::int32_t feature = -1; ///< -1 marks a leaf.
        double threshold = 0.0;    ///< Go left when x[feature] <= this.
        std::int32_t left = -1;
        std::int32_t right = -1;
        double value = 0.0; ///< Leaf prediction.
    };

    /** Read-only node storage (index 0 = root); FlatForest compiles it. */
    const std::vector<Node> &nodes() const { return _nodes; }

  private:
    /** Legacy per-node-sort recursion (TreeOptions::legacySplitScan). */
    std::int32_t build(const Dataset &data,
                       std::vector<std::uint32_t> &rows, std::size_t begin,
                       std::size_t end, int depth, const TreeOptions &opts,
                       Pcg32 &rng, std::vector<std::uint32_t> &scratch);

    std::vector<Node> _nodes;
    int _depth = 0;
};

} // namespace gpupm::ml
