#include "ml/flat_forest.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>
#include <utility>
#include <limits>

#include "common/logging.hpp"
#include "ml/random_forest.hpp"
#include "trace/trace.hpp"

namespace gpupm::ml {

namespace {

std::atomic<std::uint64_t> g_rowsWalked{0};

} // namespace

std::uint64_t
forestRowsWalked()
{
    return g_rowsWalked.load(std::memory_order_relaxed);
}

void
FlatForest::appendTree(const std::vector<DecisionTree::Node> &nodes)
{
    GPUPM_ASSERT(!nodes.empty(), "cannot compile an empty tree");
    _roots.push_back(static_cast<std::uint32_t>(_nodes.size()));

    // Breadth-first renumbering: order[slot] is the source-node index
    // occupying arena slot root+slot. Children are enqueued together,
    // so a node's children land in adjacent slots and one relative
    // offset (to the left child) addresses both.
    std::vector<std::int32_t> order;
    std::vector<std::uint16_t> level;
    order.reserve(nodes.size());
    level.reserve(nodes.size());
    order.push_back(0);
    level.push_back(0);
    std::uint16_t depth = 0;
    for (std::size_t slot = 0; slot < order.size(); ++slot) {
        const auto &n = nodes[static_cast<std::size_t>(order[slot])];
        depth = std::max(depth, level[slot]);
        Node packed;
        if (n.feature >= 0) {
            GPUPM_ASSERT(n.feature <
                             static_cast<std::int32_t>(numFeatures),
                         "feature index out of FeatureVector range");
            // Levels and walk depths are 16-bit: a deeper tree would
            // wrap its walk count and read past the arena.
            if (level[slot] == std::numeric_limits<std::uint16_t>::max())
                GPUPM_FATAL("tree deeper than 65535 levels");
            const std::size_t left_slot = order.size();
            order.push_back(n.left);
            order.push_back(n.right);
            level.push_back(static_cast<std::uint16_t>(level[slot] + 1));
            level.push_back(static_cast<std::uint16_t>(level[slot] + 1));
            packed.threshold = n.threshold;
            packed.offset =
                static_cast<std::int32_t>(left_slot - slot);
            packed.feature = static_cast<std::int16_t>(n.feature);
            _leafIdx.push_back(-1);
        } else {
            // Self-looping leaf: f[0] > +inf is false for every double
            // (including +inf and NaN), so i += 0 + 0 parks the walker
            // here for the rest of its fixed-step walk.
            packed.threshold = std::numeric_limits<double>::infinity();
            packed.offset = 0;
            packed.feature = 0;
            _leafIdx.push_back(
                static_cast<std::int32_t>(_leafValue.size()));
            _leafValue.push_back(n.value);
        }
        _nodes.push_back(packed);
    }
    GPUPM_ASSERT(order.size() == nodes.size(),
                 "tree has unreachable nodes");
    _depths.push_back(depth);
}

void
FlatForest::finalizeWalkOrder()
{
    _walkOrder.resize(_roots.size());
    for (std::size_t t = 0; t < _walkOrder.size(); ++t)
        _walkOrder[t] = static_cast<std::uint32_t>(t);
    std::stable_sort(_walkOrder.begin(), _walkOrder.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return _depths[a] < _depths[b];
                     });
}

std::size_t
FlatForest::arenaMisalignment() const
{
    return static_cast<std::size_t>(
        reinterpret_cast<std::uintptr_t>(_nodes.data()) % kCacheLineBytes);
}

FlatForest
FlatForest::compile(const RandomForest &rf)
{
    GPUPM_ASSERT(rf.fitted(), "cannot compile an unfitted forest");
    FlatForest ff;
    ff._nodes.reserve(rf.totalNodes());
    ff._leafIdx.reserve(rf.totalNodes());
    ff._roots.reserve(rf.treeCount());
    ff._depths.reserve(rf.treeCount());
    for (const auto &tree : rf.trees())
        ff.appendTree(tree.nodes());
    ff.finalizeWalkOrder();
    return ff;
}

FlatForest
FlatForest::compile(const DecisionTree &tree)
{
    GPUPM_ASSERT(tree.fitted(), "cannot compile an unfitted tree");
    FlatForest ff;
    ff.appendTree(tree.nodes());
    ff.finalizeWalkOrder();
    return ff;
}

namespace {

/**
 * One branchless traversal step. Internal node: move to the left child
 * plus one if the feature exceeds the threshold. Leaf: threshold is
 * +inf and offset 0, so the walker stays put. Templated because the
 * packed node type is private to FlatForest.
 *
 * The walk saturates the load ports before anything else, so on
 * little-endian targets the offset and feature fields - which share
 * the 8-byte word at node offset 8 - are fetched with a single load
 * and split with ALU ops.
 */
template <typename NodeT>
[[gnu::always_inline]] inline std::uint32_t
step(const NodeT *nodes, std::uint32_t i, const double *f)
{
    const NodeT &nd = nodes[i];
    if constexpr (std::endian::native == std::endian::little) {
        static_assert(offsetof(NodeT, offset) == 8 &&
                          offsetof(NodeT, feature) == 12,
                      "fused meta load expects offset/feature at +8");
        std::uint64_t m;
        std::memcpy(&m, reinterpret_cast<const unsigned char *>(&nd) + 8,
                    sizeof(m));
        const auto off = static_cast<std::uint32_t>(m);
        // The feature index is never negative (leaves store 0), so the
        // 16-bit mask recovers it without sign handling.
        const auto feat =
            static_cast<std::uint32_t>((m >> 32) & 0xffffu);
        return i + off + (f[feat] > nd.threshold ? 1u : 0u);
    } else {
        return i + static_cast<std::uint32_t>(nd.offset) +
               (f[nd.feature] > nd.threshold ? 1u : 0u);
    }
}

/**
 * Walk W independent walkers a fixed number of steps. Each step is a
 * node load feeding a feature load feeding a compare - a ~14-cycle
 * dependence chain - so wall time is latency-bound and W concurrent
 * chains recover almost W-fold throughput until the load units
 * saturate. W = 8 measured best on this code (4 leaves latency on the
 * table, 16 starts spilling walker state).
 */
template <std::size_t W, typename NodeT>
[[gnu::always_inline]] inline void
walk(const NodeT *nodes, std::uint32_t (&idx)[W],
     const double *const (&feat)[W], std::uint16_t depth)
{
    // The fold over constant indices unrolls the walker loop
    // syntactically, so every idx[I] lives in a register across the
    // depth loop instead of bouncing through the stack. always_inline
    // on the lambda keeps the unrolled body inside the caller's loop
    // nest (GCC otherwise outlines it, re-marshalling all W walkers
    // through the stack per call).
    [&]<std::size_t... I>(std::index_sequence<I...>)
        __attribute__((always_inline)) {
        for (std::uint16_t d = 0; d < depth; ++d)
            ((idx[I] = step(nodes, idx[I], feat[I])), ...);
    }(std::make_index_sequence<W>{});
}

} // namespace

void
FlatForest::predictBatch(std::span<const FeatureVector> x,
                         std::span<double> out) const
{
    GPUPM_ASSERT(compiled(), "predict on an uncompiled FlatForest");
    GPUPM_ASSERT(out.size() == x.size(),
                 "predictBatch output size mismatch");
    const std::size_t n = x.size();
    trace::Span span(trace::Category::Ml, "ml.flatForest.predictBatch",
                     "queries", static_cast<double>(n));
    g_rowsWalked.fetch_add(n, std::memory_order_relaxed);

    // Runs of contiguous rows with the same kernel prefix (one kernel's
    // configs; a batch may concatenate several kernels) take the
    // shared-prefix walk when long enough. Everything between them is
    // row-walked in maximal segments, so short runs still interleave.
    const auto same_kernel = [&](std::size_t a, std::size_t b) {
        return std::memcmp(x[a].data(), x[b].data(),
                           numKernelFeatures * sizeof(double)) == 0;
    };
    std::size_t walked = 0;
    for (std::size_t s = 0; s < n;) {
        std::size_t e = s + 1;
        while (e < n && e - s < kSharedWalkMaxRows && same_kernel(s, e))
            ++e;
        if (e - s >= kSharedWalkMinRows) {
            predictRowsFloat(x.subspan(walked, s - walked),
                             out.subspan(walked, s - walked));
            predictRunShared(x.subspan(s, e - s), out.subspan(s, e - s));
            walked = e;
        }
        s = e;
    }
    predictRowsFloat(x.subspan(walked), out.subspan(walked));
}

void
FlatForest::predictRowsFloat(std::span<const FeatureVector> x,
                             std::span<double> out) const
{
    const std::size_t n = x.size();
    if (n < 8) {
        // Too few queries to interleave; predictOne interleaves trees
        // instead. Scratch is thread_local so a warm hot path never
        // allocates.
        thread_local std::vector<double> leaf_scratch;
        leaf_scratch.resize(_roots.size());
        for (std::size_t q = 0; q < n; ++q)
            out[q] = predictOne(x[q], leaf_scratch);
        return;
    }

    std::fill(out.begin(), out.end(), 0.0);
    const Node *const nodes = _nodes.data();
    const std::int32_t *const leaf_idx = _leafIdx.data();
    const double *const leaf = _leafValue.data();

    // Tree-major: one tree's nodes stay cache-resident while the whole
    // batch walks it; eight queries walk concurrently for memory-level
    // parallelism. Per query the leaves accumulate in tree order,
    // matching the scalar reference sum exactly.
    for (std::size_t t = 0; t < _roots.size(); ++t) {
        const std::uint32_t root = _roots[t];
        const std::uint16_t depth = _depths[t];
        std::size_t q = 0;
        for (; q + 8 <= n; q += 8) {
            const double *feat[8];
            std::uint32_t idx[8];
            for (std::size_t w = 0; w < 8; ++w) {
                feat[w] = x[q + w].data();
                idx[w] = root;
            }
            walk(nodes, idx, feat, depth);
            for (std::size_t w = 0; w < 8; ++w)
                out[q + w] += leaf[leaf_idx[idx[w]]];
        }
        for (; q < n; ++q) {
            const double *const f = x[q].data();
            std::uint32_t i = root;
            for (std::uint16_t d = 0; d < depth; ++d)
                i = step(nodes, i, f);
            out[q] += leaf[leaf_idx[i]];
        }
    }

    const auto trees = static_cast<double>(_roots.size());
    for (auto &v : out)
        v /= trees;
}

namespace {

/**
 * Per-thread scratch of the shared-prefix walk. Bitsets are
 * ceil(rows / 64) words wide, so every buffer is sized to the runs a
 * thread has walked, not to the widest run the walk accepts.
 */
struct SharedWalkScratch
{
    std::vector<std::pair<double, std::uint32_t>> sorted;
    std::vector<std::int32_t> group;  ///< Row's value index, -1 for NaN.
    std::vector<double> values;       ///< See RunFeatures.
    std::vector<std::uint64_t> masks; ///< See RunFeatures.
    /// Row bitsets. Items refer to them by index, so a move to a child
    /// copies no set; set 0 is the whole run.
    std::vector<std::uint64_t> sets;
    std::array<std::vector<std::uint32_t>, 2> node; ///< Item node, by level parity.
    std::array<std::vector<std::uint32_t>, 2> tree; ///< Item tree.
    std::array<std::vector<std::uint32_t>, 2> set;  ///< Item set index.
    std::vector<std::uint32_t> split; ///< This level's free-split items.
    std::vector<std::uint32_t> leafNode; ///< Items that reached a leaf.
    std::vector<std::uint32_t> leafTree;
    std::vector<std::uint32_t> leafSet;
    std::vector<double> leaves; ///< Leaf value per (tree, row), tree-major.
};

SharedWalkScratch &
sharedWalkScratch()
{
    static thread_local SharedWalkScratch s;
    return s;
}

/** Grow-only resize: the walk overwrites every slot it reads. */
template <typename T>
T *
atLeast(std::vector<T> &v, std::size_t n)
{
    if (v.size() < n)
        v.resize(n);
    return v.data();
}

/**
 * One run's features as the walk sees them. A feature is shared when
 * every row holds the same bits, so one comparison decides a split for
 * the whole run. A free feature keeps its distinct non-NaN values in
 * ascending order, values[valueBegin[f] ...], valueCount[f] of them
 * padded with +inf to a multiple of kValueBlock, and one suffix mask
 * per value plus an empty one: mask k holds the rows whose value is at
 * least the k-th distinct value, so the rows with `value > t` are mask
 * number upper_bound(values, t). -0.0 and +0.0 compare equal and share
 * a value; NaN rows join no mask and a NaN threshold selects the empty
 * one, both as `>` would have it.
 */
struct RunFeatures
{
    static constexpr std::size_t kValueBlock = 8;
    std::uint32_t shared = 0; ///< Bit f: feature f is shared.
    std::array<std::uint32_t, numFeatures> valueBegin{};
    std::array<std::uint32_t, numFeatures> valueCount{};
    std::array<std::uint32_t, numFeatures> maskBegin{}; ///< In masks.

    /** The rows whose free feature f exceeds t. */
    template <std::size_t W>
    const std::uint64_t *
    greater(const SharedWalkScratch &s, std::size_t f, double t) const
    {
        const double *const v = s.values.data() + valueBegin[f];
        const std::size_t count = valueCount[f];
        std::size_t k;
        if (count <= kValueBlock) {
            // Branchless upper_bound over one block. The padding
            // counts only for a NaN or +inf t, which no row exceeds;
            // the clamp then selects the empty mask.
            std::size_t c = 0;
            for (std::size_t j = 0; j < kValueBlock; ++j)
                c += !(t < v[j]) ? 1u : 0u;
            k = std::min(c, count);
        } else {
            k = static_cast<std::size_t>(
                std::upper_bound(v, v + count, t) - v);
        }
        return s.masks.data() + (maskBegin[f] + k) * W;
    }
};

static_assert(numFeatures <= 32, "shared-feature set is a 32-bit mask");

/**
 * Distinct values of one free feature, ascending, into s.values; the
 * group index of row q's value into group[q] (-1 for NaN). Few values
 * (the config features of a scan take at most seven) are found by
 * insertion into one block; more fall back to a sort.
 */
std::size_t
distinctValues(std::span<const FeatureVector> x, std::size_t f,
               SharedWalkScratch &s, std::int32_t *group)
{
    constexpr std::size_t kBlock = RunFeatures::kValueBlock;
    const std::size_t n = x.size();
    double block[kBlock];
    std::size_t count = 0;
    bool few = true;
    for (std::size_t q = 0; q < n; ++q) {
        const double v = x[q][f];
        if (v != v || (q > 0 && v == x[q - 1][f]))
            continue;
        std::size_t j = 0;
        while (j < count && block[j] < v)
            ++j;
        if (j < count && block[j] == v)
            continue;
        if (count == kBlock) {
            few = false;
            break;
        }
        std::copy_backward(block + j, block + count, block + count + 1);
        block[j] = v;
        ++count;
    }
    if (few) {
        s.values.insert(s.values.end(), block, block + count);
        for (std::size_t q = 0; q < n; ++q) {
            const double v = x[q][f];
            std::int32_t g = 0;
            for (std::size_t j = 0; j < count; ++j)
                g += block[j] < v ? 1 : 0;
            group[q] = v == v ? g : -1;
        }
        return count;
    }

    s.sorted.clear();
    for (std::size_t q = 0; q < n; ++q) {
        group[q] = -1;
        if (const double v = x[q][f]; v == v)
            s.sorted.emplace_back(v, static_cast<std::uint32_t>(q));
    }
    std::sort(s.sorted.begin(), s.sorted.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    count = 0;
    for (std::size_t j = 0; j < s.sorted.size(); ++j) {
        if (j == 0 || s.sorted[j].first != s.sorted[j - 1].first) {
            s.values.push_back(s.sorted[j].first);
            ++count;
        }
        group[s.sorted[j].second] = static_cast<std::int32_t>(count - 1);
    }
    return count;
}

RunFeatures
prepareRun(std::span<const FeatureVector> x, std::size_t words,
           SharedWalkScratch &s)
{
    constexpr std::size_t kBlock = RunFeatures::kValueBlock;
    const std::size_t n = x.size();
    RunFeatures rf;
    s.values.clear();
    s.masks.clear();
    std::int32_t *const group = atLeast(s.group, n);
    for (std::size_t f = 0; f < static_cast<std::size_t>(numFeatures);
         ++f) {
        const auto b0 = std::bit_cast<std::uint64_t>(x[0][f]);
        std::size_t q = 1;
        while (q < n && std::bit_cast<std::uint64_t>(x[q][f]) == b0)
            ++q;
        if (q == n) {
            rf.shared |= 1u << f;
            continue;
        }

        rf.valueBegin[f] = static_cast<std::uint32_t>(s.values.size());
        const std::size_t count = distinctValues(x, f, s, group);
        rf.valueCount[f] = static_cast<std::uint32_t>(count);
        s.values.resize(rf.valueBegin[f] +
                            std::max<std::size_t>(
                                kBlock, (count + kBlock - 1) / kBlock *
                                            kBlock),
                        std::numeric_limits<double>::infinity());

        // Rows into their value's mask, then suffix unions from the
        // largest value down; the last mask stays empty.
        rf.maskBegin[f] =
            static_cast<std::uint32_t>(s.masks.size() / words);
        const std::size_t base = s.masks.size();
        s.masks.resize(base + (count + 1) * words, 0);
        std::uint64_t *const mk = s.masks.data() + base;
        for (q = 0; q < n; ++q)
            if (group[q] >= 0)
                mk[static_cast<std::size_t>(group[q]) * words + q / 64] |=
                    std::uint64_t{1} << (q % 64);
        for (std::size_t k = count; k-- > 1;)
            for (std::size_t w = 0; w < words; ++w)
                mk[(k - 1) * words + w] |= mk[k * words + w];
    }
    return rf;
}

/**
 * The level-synchronous walk of one run through every tree, W bitset
 * words per set (a template so each set operation unrolls). Level 0
 * holds one item per tree, all on set 0, the whole run. Each level
 * first reads every item's node: an item on a shared-feature split
 * moves to the decided child with its set unchanged, an item on a
 * free-feature split is queued, and an item on a leaf is set aside.
 * The queued splits then partition their sets into the two children's
 * non-empty halves. Every child is prefetched when it is pushed, so
 * the next level's cache misses overlap; the appends are branch-free.
 * Per tree the items' sets partition the run's rows at every level, so
 * the scatter at the end writes each cell of the (tree, row) table
 * exactly once.
 */
template <std::size_t W, typename NodeT>
void
walkRunShared(const NodeT *nodes, const std::int32_t *leaf_idx,
              const double *leaf, std::span<const std::uint32_t> roots,
              const double *x0, std::size_t n, const RunFeatures &rf,
              SharedWalkScratch &s)
{
    const std::size_t trees = roots.size();
    std::uint64_t *sets = atLeast(s.sets, W);
    std::fill_n(sets, W, ~std::uint64_t{0});
    if (n % 64 != 0)
        sets[W - 1] = (std::uint64_t{1} << (n % 64)) - 1;
    std::size_t set_count = 1;
    {
        std::uint32_t *const cnode = atLeast(s.node[0], trees);
        std::uint32_t *const ctree = atLeast(s.tree[0], trees);
        std::uint32_t *const cset = atLeast(s.set[0], trees);
        for (std::size_t t = 0; t < trees; ++t) {
            cnode[t] = roots[t];
            ctree[t] = static_cast<std::uint32_t>(t);
            cset[t] = 0;
        }
    }

    std::size_t leaves = 0;
    std::size_t count = trees;
    for (std::size_t cur = 0; count > 0; cur ^= 1) {
        const std::size_t nxt = cur ^ 1;
        const std::uint32_t *const cnode = s.node[cur].data();
        const std::uint32_t *const ctree = s.tree[cur].data();
        const std::uint32_t *const cset = s.set[cur].data();
        // Every item appends at most two next-level items, and the
        // speculative appends below need one spare slot.
        std::uint32_t *const nnode = atLeast(s.node[nxt], 2 * count + 1);
        std::uint32_t *const ntree = atLeast(s.tree[nxt], 2 * count + 1);
        std::uint32_t *const nset = atLeast(s.set[nxt], 2 * count + 1);
        std::uint32_t *const split = atLeast(s.split, count + 1);
        std::uint32_t *const lnode = atLeast(s.leafNode, leaves + count + 1);
        std::uint32_t *const ltree = atLeast(s.leafTree, leaves + count + 1);
        std::uint32_t *const lset = atLeast(s.leafSet, leaves + count + 1);

        std::size_t out = 0;
        std::size_t splits = 0;
        for (std::size_t k = 0; k < count; ++k) {
            const std::uint32_t i = cnode[k];
            const NodeT &nd = nodes[i];
            const auto f = static_cast<std::size_t>(nd.feature);
            const bool is_leaf = nd.offset == 0;
            const bool is_shared = !is_leaf && ((rf.shared >> f) & 1u);
            // A leaf's child is itself; a free split's is one of its
            // children, so the prefetch is never wasted.
            const std::uint32_t child =
                i + static_cast<std::uint32_t>(nd.offset) +
                (x0[f] > nd.threshold ? 1u : 0u);
            __builtin_prefetch(nodes + child);
            nnode[out] = child;
            ntree[out] = ctree[k];
            nset[out] = cset[k];
            out += is_shared ? 1 : 0;
            split[splits] = static_cast<std::uint32_t>(k);
            splits += !is_leaf && !is_shared ? 1 : 0;
            lnode[leaves] = i;
            ltree[leaves] = ctree[k];
            lset[leaves] = cset[k];
            leaves += is_leaf ? 1 : 0;
        }

        sets = atLeast(s.sets, (set_count + 2 * splits + 1) * W);
        for (std::size_t j = 0; j < splits; ++j) {
            const std::size_t k = split[j];
            const std::uint32_t i = cnode[k];
            const NodeT &nd = nodes[i];
            const std::uint64_t *const set = sets + cset[k] * W;
            const std::uint64_t *const gt = rf.greater<W>(
                s, static_cast<std::size_t>(nd.feature), nd.threshold);
            const auto left = i + static_cast<std::uint32_t>(nd.offset);
            // Left half into the next set slot, kept only if non-empty;
            // the right half then lands in whichever slot is next.
            std::uint64_t *const ls = sets + set_count * W;
            std::uint64_t any = 0;
            for (std::size_t w = 0; w < W; ++w) {
                ls[w] = set[w] & ~gt[w];
                any |= ls[w];
            }
            nnode[out] = left;
            ntree[out] = ctree[k];
            nset[out] = static_cast<std::uint32_t>(set_count);
            const std::size_t kept = any != 0 ? 1 : 0;
            out += kept;
            set_count += kept;
            std::uint64_t *const rs = sets + set_count * W;
            any = 0;
            for (std::size_t w = 0; w < W; ++w) {
                rs[w] = set[w] & gt[w];
                any |= rs[w];
            }
            nnode[out] = left + 1;
            ntree[out] = ctree[k];
            nset[out] = static_cast<std::uint32_t>(set_count);
            out += any != 0 ? 1 : 0;
            set_count += any != 0 ? 1 : 0;
        }
        count = out;
    }

    // Two passes so the leaf-index and leaf-value misses of all leaves
    // overlap instead of chaining per leaf.
    std::uint32_t *const lvalue = s.leafNode.data();
    for (std::size_t l = 0; l < leaves; ++l) {
        lvalue[l] = static_cast<std::uint32_t>(leaf_idx[lvalue[l]]);
        __builtin_prefetch(leaf + lvalue[l]);
    }
    for (std::size_t l = 0; l < leaves; ++l) {
        const double v = leaf[lvalue[l]];
        double *const col = s.leaves.data() + s.leafTree[l] * n;
        const std::uint64_t *const set = sets + s.leafSet[l] * W;
        for (std::size_t w = 0; w < W; ++w)
            for (std::uint64_t b = set[w]; b != 0; b &= b - 1)
                col[w * 64 + static_cast<std::size_t>(std::countr_zero(b))] =
                    v;
    }
}

} // namespace

void
FlatForest::predictRunShared(std::span<const FeatureVector> x,
                             std::span<double> out) const
{
    const std::size_t n = x.size();
    GPUPM_ASSERT(n > 0 && n <= kSharedWalkMaxRows,
                 "shared-prefix run out of range");
    const std::size_t words = (n + 63) / 64;
    auto &s = sharedWalkScratch();
    const RunFeatures rf = prepareRun(x, words, s);
    const std::size_t trees = _roots.size();
    s.leaves.resize(trees * n);

    [&]<std::size_t... I>(std::index_sequence<I...>) {
        (void)((words == I + 1 &&
                (walkRunShared<I + 1>(_nodes.data(), _leafIdx.data(),
                                      _leafValue.data(), _roots,
                                      x[0].data(), n, rf, s),
                 true)) ||
               ...);
    }(std::make_index_sequence<kSharedWalkMaxRows / 64>{});

    // Tree order per row, as the row walk adds them; the loop runs
    // across rows, so it vectorizes without reordering any row's sum.
    double *const o = out.data();
    std::fill_n(o, n, 0.0);
    for (std::size_t t = 0; t < trees; ++t) {
        const double *const col = s.leaves.data() + t * n;
        for (std::size_t q = 0; q < n; ++q)
            o[q] += col[q];
    }
    const auto tc = static_cast<double>(trees);
    for (std::size_t q = 0; q < n; ++q)
        o[q] /= tc;
}

void
FlatForest::predictTreeBatch(std::size_t tree,
                             std::span<const FeatureVector> x,
                             std::span<const std::uint32_t> rows,
                             std::span<double> out) const
{
    GPUPM_ASSERT(compiled(), "predict on an uncompiled FlatForest");
    GPUPM_ASSERT(tree < _roots.size(), "tree index out of range");
    GPUPM_ASSERT(out.size() == rows.size(),
                 "predictTreeBatch output size mismatch");

    const Node *const nodes = _nodes.data();
    const std::int32_t *const leaf_idx = _leafIdx.data();
    const double *const leaf = _leafValue.data();
    const std::uint32_t root = _roots[tree];
    const std::uint16_t depth = _depths[tree];
    const std::size_t n = rows.size();

    std::size_t q = 0;
    for (; q + 8 <= n; q += 8) {
        const double *feat[8];
        std::uint32_t idx[8];
        for (std::size_t w = 0; w < 8; ++w) {
            feat[w] = x[rows[q + w]].data();
            idx[w] = root;
        }
        walk(nodes, idx, feat, depth);
        for (std::size_t w = 0; w < 8; ++w)
            out[q + w] = leaf[leaf_idx[idx[w]]];
    }
    for (; q < n; ++q) {
        const double *const f = x[rows[q]].data();
        std::uint32_t i = root;
        for (std::uint16_t d = 0; d < depth; ++d)
            i = step(nodes, i, f);
        out[q] = leaf[leaf_idx[i]];
    }
}

double
FlatForest::predictOne(const FeatureVector &f,
                       std::span<double> leaf_scratch) const
{
    const Node *const nodes = _nodes.data();
    const std::int32_t *const leaf_idx = _leafIdx.data();
    const double *const leaf = _leafValue.data();
    const std::uint32_t *const roots = _roots.data();
    const std::uint16_t *const depths = _depths.data();
    const std::uint32_t *const order = _walkOrder.data();
    const std::size_t trees = _roots.size();
    const double *const fd = f.data();

    // Eight trees walk concurrently, grouped by ascending depth so a
    // group's walkers finish together (a group walks to its deepest
    // member; shallow walkers park on their self-looping leaves).
    // Leaves land in per-tree slots of the scratch array and are
    // reduced sequentially in tree order afterwards, so the sum
    // matches the scalar reference bit-for-bit.
    std::size_t g = 0;
    for (; g + 8 <= trees; g += 8) {
        const double *feat[8];
        std::uint32_t idx[8];
        const std::uint16_t depth = depths[order[g + 7]];
        for (std::size_t w = 0; w < 8; ++w) {
            feat[w] = fd;
            idx[w] = roots[order[g + w]];
        }
        walk(nodes, idx, feat, depth);
        for (std::size_t w = 0; w < 8; ++w)
            leaf_scratch[order[g + w]] = leaf[leaf_idx[idx[w]]];
    }
    for (; g < trees; ++g) {
        const std::uint32_t t = order[g];
        std::uint32_t i = roots[t];
        const std::uint16_t depth = depths[t];
        for (std::uint16_t d = 0; d < depth; ++d)
            i = step(nodes, i, fd);
        leaf_scratch[t] = leaf[leaf_idx[i]];
    }

    double s = 0.0;
    for (std::size_t k = 0; k < trees; ++k)
        s += leaf_scratch[k];
    return s / static_cast<double>(trees);
}

double
FlatForest::predict(const FeatureVector &f) const
{
    GPUPM_ASSERT(compiled(), "predict on an uncompiled FlatForest");
    thread_local std::vector<double> leaf_scratch;
    leaf_scratch.resize(_roots.size());
    g_rowsWalked.fetch_add(1, std::memory_order_relaxed);
    return predictOne(f, leaf_scratch);
}

} // namespace gpupm::ml
