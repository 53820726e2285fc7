#include "ml/flat_forest.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <utility>
#include <limits>

#include "common/logging.hpp"
#include "ml/flat_forest_kernels.hpp"
#include "ml/random_forest.hpp"
#include "trace/trace.hpp"

namespace gpupm::ml {

namespace {

/**
 * Pack one quantized traversal record: low half `feature << 16 |
 * uint16(qthr)`, high half the child offset. Field extraction in the
 * walk kernels is shift/mask arithmetic on the 64-bit value, so the
 * layout is endian-independent for the portable path; the AVX2
 * kernels additionally rely on little-endian to gather the halves as
 * adjacent 32-bit words.
 */
inline std::int64_t
packQuantNode(std::int32_t meta, std::int32_t offset)
{
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(meta)) |
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(offset))
         << 32));
}

/** Low (meta) half of a packed quantized record. */
inline std::int32_t
quantMeta(std::int64_t rec)
{
    return static_cast<std::int32_t>(
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(rec)));
}

/**
 * floor() over the clamped range both quantize maps use, without the
 * libm call std::floor compiles to on baseline x86-64 (no SSE4.1
 * roundsd): truncate toward zero, then subtract one when truncation
 * rounded up (negative non-integers). Exact for |v| < 2^31, which the
 * callers' clamps guarantee; bit-identical to std::floor there.
 */
inline std::int32_t
floorToInt(double v)
{
    const auto iv = static_cast<std::int32_t>(v);
    return iv - (static_cast<double>(iv) > v ? 1 : 0);
}

/**
 * Arena identities are handed out once per built arena and never
 * recycled, so a cache entry keyed on one can dangle harmlessly: after
 * the forest dies the id simply never matches again.
 */
std::uint64_t
nextArenaId()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

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

std::int16_t
FlatForest::quantizeFeature(const FeatureQuantizer &qz, double x)
{
    // NaN goes left unconditionally, matching the float comparison
    // (NaN > t is false): INT16_MIN is below every quantized
    // threshold, including the most negative real one (-kQuantBias).
    if (x != x)
        return std::numeric_limits<std::int16_t>::min();
    if (qz.inv == 0.0)
        return 0; // feature never split on; any cell works
    // Saturate one cell beyond the threshold grid *in the double
    // domain*, so +-inf, denormal-adjacent garbage and huge products
    // never hit undefined float->int conversions; clamping before the
    // floor is exact because floor is monotone and both bounds are
    // integers. The negated comparison also catches a NaN product.
    double v = (x - qz.lo) * qz.inv;
    if (!(v > -1.0))
        v = -1.0;
    else if (v > kQuantCells + 1.0)
        v = kQuantCells + 1.0;
    return static_cast<std::int16_t>(floorToInt(v) - kQuantBias);
}

std::int16_t
FlatForest::quantizeThreshold(const FeatureQuantizer &qz, double t)
{
    // Same affine floor as quantizeFeature but clamped *into* the
    // grid [0, kQuantCells]: features saturate one cell beyond both
    // ends, so an off-grid feature still compares strictly against
    // every threshold. Both maps floor the same monotone affine
    // expression, which makes quantized decisions order-consistent
    // with the float ones (see the header's error model).
    double v = (t - qz.lo) * qz.inv;
    if (!(v > 0.0))
        v = 0.0;
    else if (v > static_cast<double>(kQuantCells))
        v = static_cast<double>(kQuantCells);
    return static_cast<std::int16_t>(floorToInt(v) - kQuantBias);
}

void
FlatForest::buildQuantTables()
{
    // Pass 1: each feature's split-threshold span across all trees.
    std::array<double, numFeatures> lo{};
    std::array<double, numFeatures> hi{};
    std::array<bool, numFeatures> seen{};
    for (const Node &nd : _nodes) {
        if (nd.offset == 0)
            continue;
        const auto f = static_cast<std::size_t>(nd.feature);
        if (!seen[f]) {
            seen[f] = true;
            lo[f] = hi[f] = nd.threshold;
        } else {
            lo[f] = std::min(lo[f], nd.threshold);
            hi[f] = std::max(hi[f], nd.threshold);
        }
    }

    // A feature with a single distinct threshold still needs a
    // non-degenerate scale: a huge inv turns the cell width ~0, so
    // only features pathologically close to the lone threshold can
    // flip (and the clamps keep everything total).
    constexpr double kHugeInv = 4294967296.0; // 2^32
    for (std::size_t f = 0;
         f < static_cast<std::size_t>(numFeatures); ++f) {
        if (!seen[f]) {
            _quant[f] = {0.0, 0.0};
            continue;
        }
        const double span = hi[f] - lo[f];
        const double inv =
            (span > 0.0 && std::isfinite(span))
                ? static_cast<double>(kQuantCells) / span
                : kHugeInv;
        _quant[f] = {lo[f], inv};
    }

    // SoA mirror for the vectorized row quantizer. Padding entries
    // keep inv == 0, so vector lanes past numFeatures quantize to the
    // same 0 the scalar padding loop writes.
    _qlo.fill(0.0);
    _qinv.fill(0.0);
    for (std::size_t f = 0;
         f < static_cast<std::size_t>(numFeatures); ++f) {
        _qlo[f] = _quant[f].lo;
        _qinv[f] = _quant[f].inv;
    }

    // Pass 2: pack the mirror arena of 8-byte traversal records.
    _qnodes.resize(_nodes.size());
    for (std::size_t i = 0; i < _nodes.size(); ++i) {
        const Node &nd = _nodes[i];
        if (nd.offset == 0) {
            _qnodes[i] = packQuantNode(
                static_cast<std::int32_t>(
                    static_cast<std::uint16_t>(kQuantLeafThr)),
                0);
        } else {
            const std::int16_t qt = quantizeThreshold(
                _quant[static_cast<std::size_t>(nd.feature)],
                nd.threshold);
            _qnodes[i] = packQuantNode(
                (static_cast<std::int32_t>(nd.feature) << 16) |
                    static_cast<std::int32_t>(
                        static_cast<std::uint16_t>(qt)),
                nd.offset);
        }
    }
}

void
FlatForest::setSimdMode(SimdMode m)
{
    _mode = m;
    _path = resolveSimdPath(m);
}

std::size_t
FlatForest::arenaMisalignment() const
{
    const auto mis = [](const void *p) {
        return static_cast<std::size_t>(
            reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes);
    };
    return mis(_nodes.data()) | mis(_qnodes.data());
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
    ff.buildQuantTables();
    ff._arenaId = nextArenaId();
    return ff;
}

FlatForest
FlatForest::compile(const DecisionTree &tree)
{
    GPUPM_ASSERT(tree.fitted(), "cannot compile an unfitted tree");
    FlatForest ff;
    ff.appendTree(tree.nodes());
    ff.finalizeWalkOrder();
    ff.buildQuantTables();
    ff._arenaId = nextArenaId();
    return ff;
}

FlatForest
FlatForest::specialize(std::span<const double> fixed) const
{
    GPUPM_ASSERT(compiled(), "specialize on an uncompiled FlatForest");
    const Node *const nodes = _nodes.data();
    const std::int64_t *const qnodes = _qnodes.data();
    const double *const fv = fixed.data();
    const auto nf = static_cast<std::int16_t>(fixed.size());

    // In a quantized mode the fixed edges must contract exactly the
    // way the quantized walk would take them, so the residual forest
    // agrees with the unspecialized quantized walk bit for bit; the
    // float path keeps the float comparisons for the same reason.
    const bool quantized = _path != SimdPath::Float64;
    std::array<std::int16_t, numFeatures> qfix{};
    if (quantized)
        for (std::int16_t f = 0; f < nf; ++f)
            qfix[static_cast<std::size_t>(f)] = quantizeFeature(
                _quant[static_cast<std::size_t>(f)], fv[f]);

    // Follow decided (fixed-feature) edges until a surviving split or
    // a leaf. Leaves encode feature 0 / threshold +inf (quantized:
    // kQuantLeafThr), so they stop on the offset test regardless of nf.
    // The chains dominate specialize() and are cache-miss bound on the
    // parent arena, so the quantized variant reads only the packed
    // 8-byte records (offset, feature and threshold all live in one
    // word) instead of pulling the 16-byte float node alongside.
    const auto unf = static_cast<std::uint32_t>(fixed.size());
    const auto resolveQ = [&](std::uint32_t i) {
        for (;;) {
            const auto rec = static_cast<std::uint64_t>(qnodes[i]);
            const auto off = static_cast<std::uint32_t>(rec >> 32);
            const auto feat =
                static_cast<std::uint32_t>((rec >> 16) & 0xffffu);
            if (off == 0 || feat >= unf)
                return i;
            const auto qt = static_cast<std::int32_t>(
                static_cast<std::int16_t>(
                    static_cast<std::uint16_t>(rec)));
            i += off + (qfix[feat] > qt ? 1u : 0u);
        }
    };
    const auto resolveF = [&](std::uint32_t i) {
        for (;;) {
            const Node &nd = nodes[i];
            if (nd.offset == 0 || nd.feature >= nf)
                return i;
            i += static_cast<std::uint32_t>(nd.offset) +
                 (fv[nd.feature] > nd.threshold ? 1u : 0u);
        }
    };
    const auto resolve = [&](std::uint32_t i) {
        return quantized ? resolveQ(i) : resolveF(i);
    };

    FlatForest out;
    out._roots.reserve(_roots.size());
    out._depths.reserve(_roots.size());
    // The residual inherits the parent's quantizers and, below, the
    // parent's packed thresholds verbatim: surviving splits compare
    // exactly as they would inside the parent arena.
    out._quant = _quant;
    out._qlo = _qlo;
    out._qinv = _qinv;
    out._mode = _mode;
    out._path = _path;

    // Residuals are typically ~2% of the parent (a specialize() call
    // only pays off when the prefix decides most splits), so a small
    // up-front reservation removes every growth copy on the hot path
    // without committing parent-sized allocations.
    const std::size_t hint =
        std::min<std::size_t>(_nodes.size(), 2048);
    out._nodes.reserve(hint);
    out._qnodes.reserve(hint);
    out._leafIdx.reserve(hint);
    out._leafValue.reserve(hint / 2 + 1);

    // Same breadth-first emission as appendTree, but over the resolved
    // subgraph of this arena. order[] holds source arena indices whose
    // splits survive; leaf values are copied so the residual forest is
    // self-contained.
    std::vector<std::uint32_t> order;
    std::vector<std::uint16_t> level;
    order.reserve(512);
    level.reserve(512);
    for (const std::uint32_t root : _roots) {
        out._roots.push_back(static_cast<std::uint32_t>(out._nodes.size()));
        order.clear();
        level.clear();
        order.push_back(resolve(root));
        level.push_back(0);
        std::uint16_t depth = 0;
        for (std::size_t slot = 0; slot < order.size(); ++slot) {
            const Node &nd = nodes[order[slot]];
            depth = std::max(depth, level[slot]);
            Node packed;
            if (nd.offset != 0) {
                const std::size_t left_slot = order.size();
                const std::uint32_t left =
                    order[slot] + static_cast<std::uint32_t>(nd.offset);
                order.push_back(resolve(left));
                order.push_back(resolve(left + 1));
                level.push_back(
                    static_cast<std::uint16_t>(level[slot] + 1));
                level.push_back(
                    static_cast<std::uint16_t>(level[slot] + 1));
                packed.threshold = nd.threshold;
                packed.offset =
                    static_cast<std::int32_t>(left_slot - slot);
                packed.feature = nd.feature;
                out._leafIdx.push_back(-1);
                out._qnodes.push_back(packQuantNode(
                    (static_cast<std::int32_t>(nd.feature) << 16) |
                        (quantMeta(qnodes[order[slot]]) & 0xffff),
                    packed.offset));
            } else {
                packed.threshold =
                    std::numeric_limits<double>::infinity();
                packed.offset = 0;
                packed.feature = 0;
                out._leafIdx.push_back(
                    static_cast<std::int32_t>(out._leafValue.size()));
                out._leafValue.push_back(
                    _leafValue[_leafIdx[order[slot]]]);
                out._qnodes.push_back(packQuantNode(
                    static_cast<std::int32_t>(
                        static_cast<std::uint16_t>(kQuantLeafThr)),
                    0));
            }
            out._nodes.push_back(packed);
        }
        out._depths.push_back(depth);
    }
    out.finalizeWalkOrder();
    out._arenaId = nextArenaId();
    return out;
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

/**
 * One quantized traversal step - the portable twin of the AVX2
 * kernel's qstep8 (flat_forest_avx2.cpp): one 8-byte record load,
 * the same sign-extensions and the same exact integer arithmetic, so
 * the two paths agree bit for bit on every walk.
 */
[[gnu::always_inline]] inline std::uint32_t
qstep(const std::int64_t *qnodes, std::uint32_t i,
      const std::int16_t *qrow)
{
    const auto rec = static_cast<std::uint64_t>(qnodes[i]);
    // Sign-extend the packed low half: the leaf sentinel stays 32767
    // (above every quantized feature value), real thresholds live in
    // [-kQuantBias, kQuantBias].
    const auto qt = static_cast<std::int32_t>(
        static_cast<std::int16_t>(static_cast<std::uint16_t>(rec)));
    const auto feat =
        static_cast<std::uint32_t>((rec >> 16) & 0xffffu);
    const auto off = static_cast<std::uint32_t>(rec >> 32);
    return i + off +
           (static_cast<std::int32_t>(qrow[feat]) > qt ? 1u : 0u);
}

/**
 * Quantized twin of walk<W>: W interleaved fixed-point walkers, with
 * a convergence early exit. row(I) supplies walker I's quantized row
 * base - a compile-time-constant displacement in both call sites, so
 * the only live per-walker state is the index itself.
 *
 * An internal node's child offset is strictly positive and a leaf's
 * is zero, so a walker that does not move took a self-loop; when one
 * whole round moves nobody, every walker has parked and the remaining
 * depth budget would be all no-ops. The check runs every fourth round
 * (one OR-tree and a predictable branch) and the loop never walks
 * past `depth` either way, so the walk costs min(depth, converged
 * round rounded up to 4) steps: mean leaf depth in a trained forest
 * sits well below the tree's maximum depth, and the group stops at
 * its slowest member instead of the depth budget.
 */
template <std::size_t W, typename RowFn>
[[gnu::always_inline]] inline void
qwalk(const std::int64_t *qnodes, std::uint32_t (&idx)[W], RowFn row,
      std::uint16_t depth)
{
    [&]<std::size_t... I>(std::index_sequence<I...>)
        __attribute__((always_inline)) {
        std::uint16_t d = 0;
        for (; d + 4 <= depth; d += 4) {
            for (std::uint16_t k = 1; k < 4; ++k)
                ((idx[I] = qstep(qnodes, idx[I], row(I))), ...);
            std::uint32_t moved = 0;
            (([&]() __attribute__((always_inline)) {
                 const std::uint32_t next =
                     qstep(qnodes, idx[I], row(I));
                 moved |= next ^ idx[I];
                 idx[I] = next;
             }()),
             ...);
            if (moved == 0)
                return; // everyone parked: the tail is no-ops too
        }
        for (; d < depth; ++d)
            ((idx[I] = qstep(qnodes, idx[I], row(I))), ...);
    }(std::make_index_sequence<W>{});
}

} // namespace

void
FlatForest::quantizeRow(const double *f, std::int16_t *q) const
{
    for (std::size_t j = 0; j < static_cast<std::size_t>(numFeatures);
         ++j)
        q[j] = quantizeFeature(_quant[j], f[j]);
    // Zero the stride padding: the AVX2 feature gather reads 32 bits
    // at the last real slot, and defined padding keeps the row matrix
    // reproducible for memory checkers.
    for (std::size_t j = static_cast<std::size_t>(numFeatures);
         j < kQuantRowStride; ++j)
        q[j] = 0;
}

void
FlatForest::quantizeRows(std::span<const FeatureVector> x,
                         std::int16_t *rows) const
{
    const std::size_t n = x.size();
    if (_path == SimdPath::FixedAvx2 && n > 0) {
        static_assert(sizeof(FeatureVector) ==
                          sizeof(double) *
                              static_cast<std::size_t>(numFeatures),
                      "feature rows must be densely packed");
        detail::avx2QuantizeRows(
            x[0].data(), static_cast<std::size_t>(numFeatures), n,
            _qlo.data(), _qinv.data(), kQuantCells, kQuantBias, rows,
            kQuantRowStride);
        return;
    }
    for (std::size_t q = 0; q < n; ++q)
        quantizeRow(x[q].data(), rows + q * kQuantRowStride);
}

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
    addSimdRows(_path, n);

    if (_path != SimdPath::Float64) {
        predictBatchQuantized(x, out);
        return;
    }

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

namespace {

/** One cached residual: the quantized prefix it was built for. */
struct ResidualEntry
{
    std::uint64_t arenaId = 0; ///< 0 marks an empty slot.
    std::uint32_t prefixLen = 0;
    std::uint64_t lastUse = 0;
    std::array<std::int16_t, static_cast<std::size_t>(numFeatures)>
        qprefix{};
    FlatForest resid;
};

/** A prefix seen but not yet worth a specialize() call. */
struct ResidualCandidate
{
    std::uint64_t arenaId = 0;
    std::uint32_t prefixLen = 0;
    std::uint32_t rowsSeen = 0;
    std::array<std::int16_t, static_cast<std::size_t>(numFeatures)>
        qprefix{};
};

/**
 * Thread-local residual cache. Four slots cover the working set of a
 * decision loop (a time and a power forest, with room for a swapped-in
 * pair during online retraining) without a map; entries are found by
 * arena id and evicted least-recently-used. Per-thread state means no
 * locks and no cross-thread coupling; results are bit-identical either
 * way, so determinism across thread counts is unaffected.
 */
struct ResidualCacheTls
{
    std::array<ResidualEntry, 4> entries;
    // One candidate per arena (a decision loop interleaves the time
    // and the power forest, so a single shared slot would thrash and
    // never accumulate confirmations).
    std::array<ResidualCandidate, 4> cands;
    std::uint64_t tick = 0;
};

ResidualCacheTls &
residualCacheTls()
{
    static thread_local ResidualCacheTls tls;
    return tls;
}

} // namespace

const FlatForest *
FlatForest::cachedResidual(const double *x0, const std::int16_t *rows,
                           std::size_t n) const
{
    auto &tls = residualCacheTls();
    ++tls.tick;

    // Serve a built residual when every row of this call matches its
    // fixed prefix (memcmp per row: the prefix is the row's leading
    // int16s).
    for (auto &e : tls.entries) {
        if (e.arenaId != _arenaId)
            continue;
        bool match = true;
        for (std::size_t q = 0; match && q < n; ++q)
            match = std::memcmp(rows + q * kQuantRowStride,
                                e.qprefix.data(),
                                e.prefixLen * sizeof(std::int16_t)) == 0;
        if (!match)
            continue;
        e.lastUse = tls.tick;
        return &e.resid;
    }

    // Miss. Work out the prefix this call vouches for: the longest
    // quantized prefix all rows share, or - for single-row calls,
    // which cannot witness a shared prefix on their own - a match
    // against this arena's candidate.
    ResidualCandidate *c = nullptr;
    for (auto &cc : tls.cands)
        if (cc.arenaId == _arenaId) {
            c = &cc;
            break;
        }
    const auto nf = static_cast<std::uint32_t>(numFeatures);
    std::uint32_t p = 0;
    if (n >= 2) {
        for (; p < nf; ++p) {
            const std::int16_t v = rows[p];
            std::size_t q = 1;
            for (; q < n; ++q)
                if (rows[q * kQuantRowStride + p] != v)
                    break;
            if (q < n)
                break;
        }
    } else if (n == 1 && c != nullptr && c->prefixLen > 0 &&
               std::memcmp(rows, c->qprefix.data(),
                           c->prefixLen * sizeof(std::int16_t)) == 0) {
        p = c->prefixLen;
    }
    if (p == 0)
        return nullptr;

    std::uint32_t build_len = 0;
    if (n >= kBatchSpecializeMinRows) {
        // A batch this size repays the specialize() by itself.
        build_len = p;
    } else if (c != nullptr && c->prefixLen > 0 && c->prefixLen <= p &&
               std::memcmp(rows, c->qprefix.data(),
                           c->prefixLen * sizeof(std::int16_t)) == 0) {
        c->rowsSeen += static_cast<std::uint32_t>(n);
        if (c->rowsSeen >= kResidualConfirmRows)
            build_len = c->prefixLen;
    } else if (n >= 2) {
        if (c == nullptr) {
            c = &tls.cands[0];
            for (auto &cc : tls.cands)
                if (cc.rowsSeen < c->rowsSeen)
                    c = &cc;
        }
        c->arenaId = _arenaId;
        c->prefixLen = p;
        c->rowsSeen = static_cast<std::uint32_t>(n);
        std::copy(rows, rows + p, c->qprefix.begin());
        if (c->rowsSeen >= kResidualConfirmRows)
            build_len = p;
    }
    if (build_len == 0)
        return nullptr;

    // Build and cache. The raw doubles of row 0 quantize to the
    // matched prefix, so specializing on them fixes exactly the
    // quantized values the cache key records.
    ResidualEntry *victim = nullptr;
    for (auto &e : tls.entries) {
        if (e.arenaId == _arenaId) {
            victim = &e;
            break;
        }
        if (victim == nullptr || e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->resid =
        specialize(std::span<const double>(x0, build_len));
    victim->arenaId = _arenaId;
    victim->prefixLen = build_len;
    std::copy(rows, rows + build_len, victim->qprefix.begin());
    victim->lastUse = tls.tick;
    if (c != nullptr)
        *c = ResidualCandidate{};
    return &victim->resid;
}

void
FlatForest::predictBatchQuantized(std::span<const FeatureVector> x,
                                  std::span<double> out) const
{
    const std::size_t n = x.size();

    // One quantization pass per batch; every tree then gathers int16
    // values from a dense 64-byte-aligned, 64-byte-strided row matrix.
    // thread_local so the warm path never allocates.
    thread_local AlignedVector<std::int16_t> qrow_buf;
    qrow_buf.resize(n * kQuantRowStride);
    std::int16_t *const rows = qrow_buf.data();
    quantizeRows(x, rows);

    // Full-size trees first consult the residual cache: a hit walks
    // ~50x smaller trees that agree with this arena bit for bit on
    // every row that matches the cached prefix (which the cache just
    // checked). See cachedResidual() for the build policy.
    if (n > 0 &&
        _nodes.size() >= _roots.size() * kBatchSpecializeMinAvgNodes) {
        if (const FlatForest *resid = cachedResidual(x[0].data(), rows, n)) {
            if (n < 8) {
                thread_local std::vector<double> resid_scratch;
                resid_scratch.resize(resid->_roots.size());
                for (std::size_t q = 0; q < n; ++q)
                    out[q] = resid->predictOneQuantized(
                        rows + q * kQuantRowStride, resid_scratch);
            } else {
                resid->predictBatchQuantizedRows(rows, n, out);
            }
            return;
        }
    }

    if (n < 8) {
        // Too few rows to interleave; interleave trees per row instead
        // (the per-row walk keeps sixteen tree walkers busy, which
        // beats a half-empty row group even though it re-streams the
        // arena per row).
        thread_local std::vector<double> leaf_scratch;
        leaf_scratch.resize(_roots.size());
        for (std::size_t q = 0; q < n; ++q)
            out[q] = predictOneQuantized(rows + q * kQuantRowStride,
                                         leaf_scratch);
        return;
    }

    predictBatchQuantizedRows(rows, n, out);
}

void
FlatForest::predictBatchQuantizedRows(const std::int16_t *rows,
                                      std::size_t n,
                                      std::span<double> out) const
{
    std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n),
              0.0);
    const std::int64_t *const qnodes = _qnodes.data();
    const std::int32_t *const leaf_idx = _leafIdx.data();
    const double *const leaf = _leafValue.data();
    const bool avx2 = _path == SimdPath::FixedAvx2;

    // Tree-major like the float path; the AVX2 kernel and the portable
    // 16-wide interleave run identical integer walks, and the tail
    // handling is shared, so the two quantized paths are bit-identical.
    // Sixteen walkers (vs the float path's eight) fit because the
    // packed record halves the per-step loads and the shared row base
    // keeps per-walker state down to the index itself.
    for (std::size_t t = 0; t < _roots.size(); ++t) {
        const std::uint32_t root = _roots[t];
        const std::uint16_t depth = _depths[t];
        std::size_t q = 0;
        if (avx2) {
            q = detail::avx2AccumTreeRows(qnodes, rows, kQuantRowStride,
                                          n, root, depth, leaf_idx,
                                          leaf, out.data());
        } else {
            for (; q + 16 <= n; q += 16) {
                const std::int16_t *const base =
                    rows + q * kQuantRowStride;
                std::uint32_t idx[16];
                for (std::size_t w = 0; w < 16; ++w)
                    idx[w] = root;
                qwalk(qnodes, idx,
                      [&](std::size_t w) {
                          return base + w * kQuantRowStride;
                      },
                      depth);
                for (std::size_t w = 0; w < 16; ++w)
                    out[q + w] += leaf[leaf_idx[idx[w]]];
            }
            for (; q + 8 <= n; q += 8) {
                const std::int16_t *const base =
                    rows + q * kQuantRowStride;
                std::uint32_t idx[8];
                for (std::size_t w = 0; w < 8; ++w)
                    idx[w] = root;
                qwalk(qnodes, idx,
                      [&](std::size_t w) {
                          return base + w * kQuantRowStride;
                      },
                      depth);
                for (std::size_t w = 0; w < 8; ++w)
                    out[q + w] += leaf[leaf_idx[idx[w]]];
            }
        }
        // 2..7 leftover rows (or a 4..7-row batch, e.g. a hill climb's
        // sensitivity probes): one 8-lane group with the spare lanes
        // clamped to the last row and their results dropped. The tree's
        // nodes are then streamed once for the whole group instead of
        // once per row, and each live row's walk is the exact walk the
        // scalar tail would have run.
        if (const std::size_t r = n - q; r >= 2) {
            const std::int16_t *rp[8];
            for (std::size_t w = 0; w < 8; ++w)
                rp[w] = rows + (q + (w < r ? w : r - 1)) *
                                   kQuantRowStride;
            std::uint32_t idx[8];
            for (std::size_t w = 0; w < 8; ++w)
                idx[w] = root;
            qwalk(qnodes, idx, [&](std::size_t w) { return rp[w]; },
                  depth);
            for (std::size_t w = 0; w < r; ++w)
                out[q + w] += leaf[leaf_idx[idx[w]]];
            q = n;
        }
        for (; q < n; ++q) {
            const std::int16_t *const qr = rows + q * kQuantRowStride;
            std::uint32_t i = root;
            for (std::uint16_t d = 0; d < depth; ++d)
                i = qstep(qnodes, i, qr);
            out[q] += leaf[leaf_idx[i]];
        }
    }

    const auto trees = static_cast<double>(_roots.size());
    for (std::size_t q = 0; q < n; ++q)
        out[q] /= trees;
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
FlatForest::predictOneQuantized(const std::int16_t *qrow,
                                std::span<double> leaf_scratch) const
{
    const std::int64_t *const qnodes = _qnodes.data();
    const std::int32_t *const leaf_idx = _leafIdx.data();
    const double *const leaf = _leafValue.data();
    const std::uint32_t *const roots = _roots.data();
    const std::uint16_t *const depths = _depths.data();
    const std::uint32_t *const order = _walkOrder.data();
    const std::size_t trees = _roots.size();
    const bool avx2 = _path == SimdPath::FixedAvx2;

    // Same depth-sorted tree grouping as predictOne, but 16 trees per
    // group: all walkers share one row, so per-walker state is just
    // the index. The AVX2 kernel takes the same 16-tree groups (two
    // vectors in flight); grouping is free to differ from the portable
    // path's because per-tree walks are independent and extra steps
    // park on self-looping leaves, so the leaf values - and the
    // tree-ordered sum below - stay bit-identical.
    std::size_t g = 0;
    if (avx2) {
        std::uint32_t r[16];
        std::uint32_t idx[16];
        for (; g + 16 <= trees; g += 16) {
            const std::uint16_t depth = depths[order[g + 15]];
            for (std::size_t w = 0; w < 16; ++w)
                r[w] = roots[order[g + w]];
            detail::avx2WalkTrees(qnodes, qrow, r, 16, depth, idx);
            for (std::size_t w = 0; w < 16; ++w)
                leaf_scratch[order[g + w]] = leaf[leaf_idx[idx[w]]];
        }
        for (; g + 8 <= trees; g += 8) {
            const std::uint16_t depth = depths[order[g + 7]];
            for (std::size_t w = 0; w < 8; ++w)
                r[w] = roots[order[g + w]];
            detail::avx2WalkTrees(qnodes, qrow, r, 8, depth, idx);
            for (std::size_t w = 0; w < 8; ++w)
                leaf_scratch[order[g + w]] = leaf[leaf_idx[idx[w]]];
        }
        // 1..7 leftover trees: a padded 8-lane group (spare lanes
        // replay the last tree, results dropped), mirroring the
        // portable branch below.
        if (const std::size_t rem = trees - g; rem > 0) {
            const std::uint16_t depth = depths[order[trees - 1]];
            for (std::size_t w = 0; w < 8; ++w)
                r[w] = roots[order[g + (w < rem ? w : rem - 1)]];
            detail::avx2WalkTrees(qnodes, qrow, r, 8, depth, idx);
            for (std::size_t w = 0; w < rem; ++w)
                leaf_scratch[order[g + w]] = leaf[leaf_idx[idx[w]]];
            g = trees;
        }
    } else {
        const auto shared_row = [&](std::size_t) { return qrow; };
        for (; g + 16 <= trees; g += 16) {
            std::uint32_t idx[16];
            const std::uint16_t depth = depths[order[g + 15]];
            for (std::size_t w = 0; w < 16; ++w)
                idx[w] = roots[order[g + w]];
            qwalk(qnodes, idx, shared_row, depth);
            for (std::size_t w = 0; w < 16; ++w)
                leaf_scratch[order[g + w]] = leaf[leaf_idx[idx[w]]];
        }
        // 1..15 leftover trees: one padded group (16- or 8-wide, spare
        // lanes replay the last tree and are dropped) instead of a
        // sequential per-tree walk - a lone walker is a ~12-cycle
        // latency chain per step, so even mostly-padded groups beat
        // walking two or three trees back to back.
        if (const std::size_t r = trees - g; r > 0) {
            const std::uint16_t depth = depths[order[trees - 1]];
            std::uint32_t idx[16];
            if (r > 8) {
                for (std::size_t w = 0; w < 16; ++w)
                    idx[w] =
                        roots[order[g + (w < r ? w : r - 1)]];
                qwalk(qnodes, idx, shared_row, depth);
            } else {
                for (std::size_t w = 0; w < 8; ++w)
                    idx[w] =
                        roots[order[g + (w < r ? w : r - 1)]];
                std::uint32_t(&idx8)[8] =
                    *reinterpret_cast<std::uint32_t(*)[8]>(idx);
                qwalk(qnodes, idx8, shared_row, depth);
            }
            for (std::size_t w = 0; w < r; ++w)
                leaf_scratch[order[g + w]] = leaf[leaf_idx[idx[w]]];
            g = trees;
        }
    }
    for (; g < trees; ++g) {
        const std::uint32_t t = order[g];
        std::uint32_t i = roots[t];
        const std::uint16_t depth = depths[t];
        for (std::uint16_t d = 0; d < depth; ++d)
            i = qstep(qnodes, i, qrow);
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
    addSimdRows(_path, 1);
    if (_path == SimdPath::Float64)
        return predictOne(f, leaf_scratch);
    alignas(kCacheLineBytes) std::int16_t qrow[kQuantRowStride];
    quantizeRows(std::span<const FeatureVector>(&f, 1), qrow);
    return predictOneQuantized(qrow, leaf_scratch);
}

} // namespace gpupm::ml
