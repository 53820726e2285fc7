/**
 * @file
 * Flat batched Random-Forest inference engine (the MPC hot path).
 *
 * A fitted RandomForest is a vector of per-tree node vectors; predicting
 * through it chases 32-byte nodes laid out in recursion order, once per
 * query per tree. Every MPC decision makes dozens of such queries
 * (sensitivity probes, climbing steps) and the exhaustive policies make
 * hundreds, so inference dominates the governor's runtime (paper
 * Fig. 14).
 *
 * FlatForest compiles a fitted forest into a single contiguous arena:
 *
 *  - nodes are renumbered breadth-first per tree, so the first levels -
 *    the ones every query visits - share cache lines, and a node's two
 *    children are adjacent (one fetch covers both outcomes);
 *  - per node, only what traversal needs, packed into 16 bytes: a
 *    float64 threshold, one int32 relative child offset (left child;
 *    right = left + 1), and an int16 feature index. Half the footprint
 *    of the training representation, and one cache line serves four
 *    nodes;
 *  - leaves are *self-looping*: threshold +inf, offset 0, so the step
 *    i += offset + (f > threshold) leaves i unchanged. A walker can
 *    therefore run a fixed number of steps - the tree's depth, recorded
 *    per root - with no data-dependent "reached a leaf yet?" branch in
 *    the inner loop at all. The leaf's value index lives in a parallel
 *    per-node table consulted once, after the walk;
 *  - trees are concatenated in one arena with a root-offset table.
 *
 * predictBatch() traverses tree-major over the whole query batch - one
 * tree's nodes stay cache-resident while all N queries walk it - and
 * runs eight independent walkers in the inner loop so the divergent
 * node-to-node dependence chains overlap (tree-path walks are latency
 * bound, not throughput bound). Small batches interleave eight *trees*
 * per query instead, which exposes the same parallelism when there are
 * not enough queries. No virtual dispatch, no per-query allocation, and
 * no unpredictable branches. No branch also means no misprediction
 * flushes: the only control flow is counted loops.
 *
 * Predictions are bit-identical to the scalar RandomForest::predict
 * reference: the same (<=) split comparisons on the same doubles,
 * leaves accumulated in tree order, one final division by the tree
 * count.
 *
 * ## Shared-prefix walk
 *
 * An MPC batch scores one kernel against many configurations, so its
 * rows agree bit for bit on the ten kernel features and differ only in
 * the seven config features, which take a handful of distinct values
 * each. A row walk re-traverses the same upper tree for every row. The
 * float path therefore splits a batch into runs of contiguous rows with
 * the same kernel prefix and walks each long run once per tree, as
 * (node, row bitset) items: all trees advance one level at a time with
 * each item's next node prefetched; a split on a feature every row of
 * the run shares moves the whole set, and a split on a free feature
 * partitions it with a precomputed "value > threshold" mask (the
 * suffix of the feature's sorted distinct values). Leaf values land in
 * a (tree, row) table that is summed in tree order and divided once,
 * so every output equals the row walk's bit for bit. Runs shorter than
 * kSharedWalkMinRows keep the row walk; runs longer than
 * kSharedWalkMaxRows (the bitset width) are walked in chunks.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "ml/decision_tree.hpp"

namespace gpupm::ml {

class RandomForest;

class FlatForest
{
  public:
    FlatForest() = default;

    /** Compile a fitted forest; fatal if unfitted. */
    static FlatForest compile(const RandomForest &rf);

    /**
     * Compile a single fitted tree (a one-tree forest). Used for the
     * out-of-bag accumulation during training, where per-tree - not
     * mean - predictions are needed.
     */
    static FlatForest compile(const DecisionTree &tree);

    bool compiled() const { return !_roots.empty(); }
    std::size_t treeCount() const { return _roots.size(); }
    std::size_t nodeCount() const { return _nodes.size(); }
    std::size_t leafCount() const { return _leafValue.size(); }

    /**
     * Mean prediction over all trees for each query: out[i] is the
     * prediction for x[i]. out.size() must equal x.size().
     * Bit-identical to calling RandomForest::predict(x[i]) for every i.
     */
    void predictBatch(std::span<const FeatureVector> x,
                      std::span<double> out) const;

    /** Single-query convenience over the same flat traversal. */
    double predict(const FeatureVector &f) const;

    /**
     * One tree's predictions for selected rows of a dataset:
     * out[j] = tree @p tree evaluated on x[rows[j]]. Exact leaf values
     * (no averaging), bit-identical to DecisionTree::predict on that
     * tree. This is the out-of-bag accumulation path: the forest is
     * compiled once after fitting and each tree streams its own OOB
     * row set through its slice of the arena, eight walkers at a time,
     * with no per-tree compile and no feature gathering. Not counted
     * by forestRowsWalked(): OOB rows are training work, not served
     * predictions.
     */
    void predictTreeBatch(std::size_t tree,
                          std::span<const FeatureVector> x,
                          std::span<const std::uint32_t> rows,
                          std::span<double> out) const;

    /**
     * The node arena's base address modulo the cache line size: 0 iff
     * it is 64-byte aligned (pinned by test + the AlignedVector
     * allocator; a line then always holds four whole nodes).
     */
    std::size_t arenaMisalignment() const;

  private:
    /** Packed traversal record; see file comment for the layout. */
    struct Node
    {
        double threshold = 0.0;   ///< Split threshold (+inf at leaves).
        std::int32_t offset = 0;  ///< Left-child delta
                                  ///< (right = left + 1); 0 at leaves,
                                  ///< which self-loop.
        std::int16_t feature = 0; ///< Split feature (0 at leaves).
    };
    static_assert(sizeof(Node) == 16, "node record must stay packed");
    static_assert(kCacheLineBytes % sizeof(Node) == 0,
                  "a cache line must hold whole node records");

    void appendTree(const std::vector<DecisionTree::Node> &nodes);

    double predictOne(const FeatureVector &f,
                      std::span<double> leaf_scratch) const;

    /**
     * Float row walk: tree-major with eight interleaved rows, or
     * predictOne per row below eight rows. Any n, including 0.
     */
    void predictRowsFloat(std::span<const FeatureVector> x,
                          std::span<double> out) const;

    /**
     * Shared-prefix walk of one run of at most kSharedWalkMaxRows rows
     * (see the file comment); bit-identical to predictRowsFloat.
     */
    void predictRunShared(std::span<const FeatureVector> x,
                          std::span<double> out) const;

    /**
     * Shortest run the shared-prefix walk takes. On the default
     * `gpupm train` model it beats the row walk from 12 rows even when
     * the rows are configurations spread across the space (few shared
     * paths), and loses at 8; on the small micro-bench model the
     * spread case breaks even between 16 and 24. Rows of adjacent
     * configurations, such as hill-climb neighbours, win from 8.
     */
    static constexpr std::size_t kSharedWalkMinRows = 16;
    /**
     * Bitset width: longer runs are walked in chunks of this many rows,
     * which bounds an item's bitset at eight 64-bit words. A
     * one-kernel scan of the 336-config space fits in one chunk.
     */
    static constexpr std::size_t kSharedWalkMaxRows = 512;
    static_assert(kSharedWalkMaxRows % 64 == 0,
                  "bitset width must be whole words");

    /**
     * Sort _walkOrder by tree depth so the eight walkers of a
     * predictOne group finish together instead of idling at the
     * group's deepest tree. Walk order is free to differ from tree
     * order: results land in per-tree slots and are summed in tree
     * order regardless.
     */
    void finalizeWalkOrder();

    AlignedVector<Node> _nodes;         ///< BFS arena, all trees.
    std::vector<std::int32_t> _leafIdx; ///< Per arena slot: leaf-value
                                        ///< index, or -1 for internal.
    std::vector<std::uint32_t> _roots;  ///< Arena index of each root.
    std::vector<std::uint16_t> _depths; ///< Per-tree depth (walk count).
    std::vector<std::uint32_t> _walkOrder; ///< Trees by ascending depth.
    std::vector<double> _leafValue;     ///< Leaf predictions.
};

/**
 * Rows served by FlatForest predictions in this process so far:
 * predictBatch() adds its row count and predict() adds one;
 * predictTreeBatch() adds nothing. One relaxed atomic - a diagnostic
 * for per-decision row counts, not synchronization.
 */
std::uint64_t forestRowsWalked();

} // namespace gpupm::ml
