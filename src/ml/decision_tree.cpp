#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <numeric>
#include <ostream>
#include <string_view>

#include "common/logging.hpp"
#include "ml/model_reader.hpp"
#include "ml/tree_builder.hpp"

namespace gpupm::ml {

DatasetOrder
DatasetOrder::build(const Dataset &data)
{
    DatasetOrder order;
    order._rows = data.size();
    const std::size_t n = order._rows;
    order.columns.resize(static_cast<std::size_t>(numFeatures) * n);
    order.sorted.resize(static_cast<std::size_t>(numFeatures) * n);
    for (std::size_t r = 0; r < n; ++r) {
        for (int f = 0; f < numFeatures; ++f)
            order.columns[static_cast<std::size_t>(f) * n + r] =
                data.x[r][static_cast<std::size_t>(f)];
    }
    for (int f = 0; f < numFeatures; ++f) {
        const double *col = order.column(f);
        std::uint32_t *s =
            order.sorted.data() + static_cast<std::size_t>(f) * n;
        std::iota(s, s + n, 0U);
        // (value, row) is a strict total order; ties land in ascending
        // row order, the canonical tie order both split scans use.
        std::sort(s, s + n, [col](std::uint32_t a, std::uint32_t b) {
            return col[a] != col[b] ? col[a] < col[b] : a < b;
        });
    }
    return order;
}

namespace {

/** Mean of targets over a row range. */
double
rangeMean(const Dataset &data, std::span<const std::uint32_t> rows)
{
    double s = 0.0;
    for (auto r : rows)
        s += data.y[r];
    return rows.empty() ? 0.0 : s / static_cast<double>(rows.size());
}

struct SplitCandidate
{
    int feature = -1;
    double threshold = 0.0;
    double score = std::numeric_limits<double>::infinity();
    std::size_t leftCount = 0;
};

/**
 * Best threshold for one feature by exhaustive scan: copy the node's
 * rows into scratch, stable-sort them by the feature, sweep prefix
 * sums, and score each boundary by the summed child SSE (equivalently,
 * maximize variance reduction). @p total_sum / @p total_sq are the
 * node's target sums, accumulated once per node in canonical order and
 * shared by every candidate feature.
 *
 * The stable sort from the node's canonical order fixes the visit
 * order of equal feature values, and with it every floating-point sum
 * below; the presorted TreeBuilder maintains exactly this order, which
 * is what makes the two paths bit-identical.
 */
SplitCandidate
bestSplitForFeature(const Dataset &data,
                    std::span<const std::uint32_t> rows,
                    std::size_t begin, std::size_t end, int feature,
                    int min_leaf, double total_sum, double total_sq,
                    std::vector<std::uint32_t> &scratch)
{
    SplitCandidate best;
    best.feature = feature;

    scratch.assign(rows.begin() + static_cast<std::ptrdiff_t>(begin),
                   rows.begin() + static_cast<std::ptrdiff_t>(end));
    auto span = std::span<std::uint32_t>(scratch);
    std::stable_sort(span.begin(), span.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return data.x[a][feature] < data.x[b][feature];
                     });

    const std::size_t n = span.size();
    double left_sum = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        left_sum += data.y[span[i]];
        const double xv = data.x[span[i]][feature];
        const double xn = data.x[span[i + 1]][feature];
        if (xv == xn)
            continue; // can't split between equal feature values
        const std::size_t nl = i + 1;
        const std::size_t nr = n - nl;
        if (nl < static_cast<std::size_t>(min_leaf) ||
            nr < static_cast<std::size_t>(min_leaf)) {
            continue;
        }
        const double right_sum = total_sum - left_sum;
        // SSE = sum(y^2) - nl*meanL^2 - nr*meanR^2; sum(y^2) is constant
        // across candidates, so minimize the negative mean-square terms.
        const double score =
            total_sq - left_sum * left_sum / static_cast<double>(nl) -
            right_sum * right_sum / static_cast<double>(nr);
        if (score < best.score) {
            best.score = score;
            best.threshold = 0.5 * (xv + xn);
            best.leftCount = nl;
        }
    }
    return best;
}

/**
 * Fatal unless the child links of a loaded tree form one tree rooted
 * at node 0, i.e. a walk from the root reaches every node exactly
 * once. A self-loop, cycle or shared child would otherwise send
 * FlatForest::compile's breadth-first renumbering round forever or
 * duplicate a subtree, and an unreachable node is one no walk uses.
 */
void
checkTreeShape(const std::vector<DecisionTree::Node> &nodes)
{
    std::vector<char> seen(nodes.size(), 0);
    std::vector<std::int32_t> stack{0};
    seen[0] = 1;
    std::size_t reached = 1;
    while (!stack.empty()) {
        const auto &n = nodes[static_cast<std::size_t>(stack.back())];
        stack.pop_back();
        if (n.feature < 0)
            continue;
        for (const std::int32_t child : {n.left, n.right}) {
            char &s = seen[static_cast<std::size_t>(child)];
            if (s) {
                GPUPM_FATAL("tree node ", child, " reached twice: "
                            "child links form a cycle or share a node");
            }
            s = 1;
            ++reached;
            stack.push_back(child);
        }
    }
    if (reached != nodes.size()) {
        GPUPM_FATAL("tree has ", nodes.size() - reached, " of ",
                    nodes.size(), " nodes unreachable from its root");
    }
}

} // namespace

std::int32_t
DecisionTree::build(const Dataset &data, std::vector<std::uint32_t> &rows,
                    std::size_t begin, std::size_t end, int depth,
                    const TreeOptions &opts, Pcg32 &rng,
                    std::vector<std::uint32_t> &scratch)
{
    _depth = std::max(_depth, depth);
    const std::size_t n = end - begin;
    auto rows_span =
        std::span<const std::uint32_t>(rows).subspan(begin, n);

    auto make_leaf = [&]() {
        Node leaf;
        leaf.value = rangeMean(data, rows_span);
        _nodes.push_back(leaf);
        return static_cast<std::int32_t>(_nodes.size() - 1);
    };

    if (depth >= opts.maxDepth ||
        n < static_cast<std::size_t>(opts.minSamplesSplit)) {
        return make_leaf();
    }

    // Constant target -> leaf.
    bool constant = true;
    for (std::size_t i = begin + 1; i < end && constant; ++i)
        constant = data.y[rows[i]] == data.y[rows[begin]];
    if (constant)
        return make_leaf();

    // Pick the candidate feature set (mtry without replacement).
    std::array<int, numFeatures> order;
    std::iota(order.begin(), order.end(), 0);
    int tries = opts.mtry > 0 ? std::min(opts.mtry, numFeatures)
                              : numFeatures;
    for (int i = 0; i < tries; ++i) {
        auto j = i + static_cast<int>(
                         rng.nextBounded(static_cast<std::uint32_t>(
                             numFeatures - i)));
        std::swap(order[i], order[j]);
    }

    // Node target totals, once per node in canonical order; every
    // candidate feature scores against the same two doubles.
    double total_sum = 0.0, total_sq = 0.0;
    for (auto r : rows_span) {
        total_sum += data.y[r];
        total_sq += data.y[r] * data.y[r];
    }

    SplitCandidate best;
    for (int i = 0; i < tries; ++i) {
        auto cand = bestSplitForFeature(data, rows, begin, end, order[i],
                                        opts.minSamplesLeaf, total_sum,
                                        total_sq, scratch);
        if (cand.score < best.score)
            best = cand;
    }
    if (best.feature < 0 || !std::isfinite(best.score))
        return make_leaf();

    // Partition rows around the chosen threshold. Stable, so each
    // child keeps the canonical order its own split scans and leaf
    // means depend on.
    auto mid_it = std::stable_partition(
        rows.begin() + static_cast<std::ptrdiff_t>(begin),
        rows.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::uint32_t r) {
            return data.x[r][best.feature] <= best.threshold;
        });
    std::size_t mid =
        static_cast<std::size_t>(mid_it - rows.begin());
    if (mid == begin || mid == end)
        return make_leaf(); // numerical degenerate split

    Node node;
    node.feature = best.feature;
    node.threshold = best.threshold;
    _nodes.push_back(node);
    auto idx = static_cast<std::int32_t>(_nodes.size() - 1);

    auto left =
        build(data, rows, begin, mid, depth + 1, opts, rng, scratch);
    auto right =
        build(data, rows, mid, end, depth + 1, opts, rng, scratch);
    _nodes[idx].left = left;
    _nodes[idx].right = right;
    return idx;
}

void
DecisionTree::fit(const Dataset &data, std::span<const std::uint32_t> rows,
                  const TreeOptions &opts, Pcg32 &rng)
{
    fit(data, rows, opts, rng, nullptr);
}

void
DecisionTree::fit(const Dataset &data, std::span<const std::uint32_t> rows,
                  const TreeOptions &opts, Pcg32 &rng,
                  const DatasetOrder *order)
{
    GPUPM_ASSERT(!rows.empty(), "cannot fit a tree on zero rows");
    GPUPM_ASSERT(data.x.size() == data.y.size(), "dataset x/y mismatch");

    // Canonicalize the bootstrap to ascending row order (counting sort;
    // duplicates stay adjacent). Both split engines fit on this order,
    // so the tree depends only on the drawn row *multiset* — and the
    // presorted engine can derive every per-feature order from the
    // shared DatasetOrder by linear expansion, with value ties visiting
    // in exactly this canonical order.
    thread_local std::vector<std::uint32_t> histogram, canonical;
    histogram.assign(data.size(), 0);
    for (const auto r : rows) {
        GPUPM_ASSERT(r < data.size(), "row index out of range");
        ++histogram[r];
    }
    canonical.clear();
    canonical.reserve(rows.size());
    for (std::uint32_t r = 0; r < data.size(); ++r) {
        for (std::uint32_t c = histogram[r]; c > 0; --c)
            canonical.push_back(r);
    }

    if (!opts.legacySplitScan) {
        // Presorted engine; thread_local so forest fitting reuses one
        // builder's scratch per worker across its trees.
        thread_local TreeBuilder builder;
        if (order) {
            builder.fit(data, *order, canonical, opts, rng, _nodes,
                        _depth);
        } else {
            const DatasetOrder local = DatasetOrder::build(data);
            builder.fit(data, local, canonical, opts, rng, _nodes,
                        _depth);
        }
        return;
    }
    _nodes.clear();
    _depth = 0;
    std::vector<std::uint32_t> work = canonical;
    std::vector<std::uint32_t> scratch;
    build(data, work, 0, work.size(), 0, opts, rng, scratch);
}

void
DecisionTree::save(std::ostream &os) const
{
    GPUPM_ASSERT(fitted(), "cannot save an unfitted tree");
    os << "tree " << _nodes.size() << ' ' << _depth << '\n';
    // max_digits10 guarantees an exact double round trip.
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (const auto &n : _nodes) {
        os << n.feature << ' ' << n.threshold << ' ' << n.left << ' '
           << n.right << ' ' << n.value << '\n';
    }
    GPUPM_ASSERT(os.good(), "stream failure while saving tree");
}

DecisionTree
DecisionTree::load(std::istream &is)
{
    detail::ModelReader in(is);
    const std::string_view tag = in.token();
    if (tag != "tree")
        GPUPM_FATAL("malformed tree header (got '", tag, "')");
    std::size_t count = 0;
    DecisionTree t;
    if (!in.number(count) || !in.number(t._depth))
        GPUPM_FATAL("malformed tree header (got 'tree')");
    if (count == 0)
        GPUPM_FATAL("tree with zero nodes");
    for (std::size_t i = 0; i < count; ++i) {
        Node n;
        if (!in.number(n.feature) || !in.number(n.threshold) ||
            !in.number(n.left) || !in.number(n.right) ||
            !in.number(n.value)) {
            GPUPM_FATAL("truncated tree node list");
        }
        if (n.feature >= numFeatures ||
            (n.feature >= 0 &&
             (n.left < 0 || n.right < 0 ||
              static_cast<std::size_t>(n.left) >= count ||
              static_cast<std::size_t>(n.right) >= count))) {
            GPUPM_FATAL("tree node out of range");
        }
        // A corrupted model file must fail here, not poison every
        // later prediction with NaN/inf.
        if (!std::isfinite(n.threshold) || !std::isfinite(n.value))
            GPUPM_FATAL("tree node with non-finite threshold or value");
        detail::reserveTowards(t._nodes, count);
        t._nodes.push_back(n);
    }
    checkTreeShape(t._nodes);
    return t;
}

double
DecisionTree::predict(const FeatureVector &f) const
{
    GPUPM_ASSERT(fitted(), "predict on an unfitted tree");
    std::int32_t i = 0;
    for (;;) {
        const Node &n = _nodes[static_cast<std::size_t>(i)];
        if (n.feature < 0)
            return n.value;
        // Right iff value > threshold, the rule of every FlatForest
        // engine, so a NaN feature goes left here as it does there.
        // Training rows hold no NaN: this only decides NaN inputs.
        i = f[static_cast<std::size_t>(n.feature)] > n.threshold
                ? n.right
                : n.left;
    }
}

} // namespace gpupm::ml
