#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <span>

#include "common/logging.hpp"
#include "exec/thread_pool.hpp"
#include "ml/flat_forest.hpp"
#include "ml/model_reader.hpp"

namespace gpupm::ml {

void
RandomForest::fit(const Dataset &data, const ForestOptions &opts)
{
    if (opts.jobs == 1) {
        fit(data, opts, nullptr);
    } else {
        exec::ThreadPool pool(exec::ThreadPool::resolveJobs(opts.jobs));
        fit(data, opts, &pool);
    }
}

void
RandomForest::fit(const Dataset &data, const ForestOptions &opts,
                  exec::ThreadPool *pool)
{
    GPUPM_ASSERT(data.size() > 0, "cannot fit forest on empty dataset");
    GPUPM_ASSERT(opts.numTrees > 0, "numTrees must be positive");

    const auto trees = static_cast<std::size_t>(opts.numTrees);
    _trees.assign(trees, {});

    const std::size_t n = data.size();
    const auto sample_size = static_cast<std::size_t>(
        std::max(1.0, opts.sampleFraction * static_cast<double>(n)));

    // Every bootstrap row set and per-tree rng stream is drawn
    // serially up front — drawing is a trivial fraction of fitting —
    // so tree t's inputs depend only on (seed, t), never on which
    // worker runs it or in what order. This is what makes the fitted
    // forest byte-identical at any job count (the PR 1 sweep-engine
    // determinism pattern).
    std::vector<std::uint32_t> bootstrap(trees * sample_size);
    std::vector<Pcg32> tree_rng;
    tree_rng.reserve(trees);
    Pcg32 rng(opts.seed, 0xf042e57ULL);
    for (std::size_t t = 0; t < trees; ++t) {
        const auto rows =
            std::span(bootstrap).subspan(t * sample_size, sample_size);
        for (auto &r : rows)
            r = rng.nextBounded(static_cast<std::uint32_t>(n));
        tree_rng.push_back(rng.split());
    }

    // Sort each feature's row order once for the whole forest; every
    // tree derives its bootstrap orders from this shared view by linear
    // expansion (see TreeBuilder), so fitting never sorts again.
    const DatasetOrder order = DatasetOrder::build(data);

    const auto fit_tree = [&](std::size_t t) {
        const auto rows =
            std::span(bootstrap).subspan(t * sample_size, sample_size);
        _trees[t].fit(data, rows, opts.tree, tree_rng[t], &order);
    };
    if (pool) {
        pool->parallelFor(trees, fit_tree);
    } else {
        for (std::size_t t = 0; t < trees; ++t)
            fit_tree(t);
    }

    // OOB accumulation: compile the fitted forest once (not once per
    // tree) and stream each tree's out-of-bag rows through its slice
    // of the arena. Per-tree predictions are exact leaf values, so
    // computing them in parallel and then reducing serially in tree
    // order reproduces the serial trainer's sums bit-for-bit.
    const FlatForest flat = FlatForest::compile(*this);
    std::vector<std::vector<std::uint32_t>> oob_rows(trees);
    std::vector<std::vector<double>> oob_pred(trees);
    const auto oob_tree = [&](std::size_t t) {
        std::vector<char> in_bag(n, 0);
        const auto rows =
            std::span(bootstrap).subspan(t * sample_size, sample_size);
        for (const auto r : rows)
            in_bag[r] = 1;
        for (std::size_t i = 0; i < n; ++i) {
            if (!in_bag[i])
                oob_rows[t].push_back(static_cast<std::uint32_t>(i));
        }
        oob_pred[t].resize(oob_rows[t].size());
        flat.predictTreeBatch(t, data.x, oob_rows[t], oob_pred[t]);
    };
    if (pool) {
        pool->parallelFor(trees, oob_tree);
    } else {
        for (std::size_t t = 0; t < trees; ++t)
            oob_tree(t);
    }

    std::vector<double> oob_sum(n, 0.0);
    std::vector<int> oob_count(n, 0);
    for (std::size_t t = 0; t < trees; ++t) {
        for (std::size_t j = 0; j < oob_rows[t].size(); ++j) {
            oob_sum[oob_rows[t][j]] += oob_pred[t][j];
            ++oob_count[oob_rows[t][j]];
        }
    }

    _oob.assign(n, std::nullopt);
    for (std::size_t i = 0; i < n; ++i) {
        if (oob_count[i] > 0)
            _oob[i] = oob_sum[i] / oob_count[i];
    }
}

double
RandomForest::predict(const FeatureVector &f) const
{
    GPUPM_ASSERT(fitted(), "predict on an unfitted forest");
    double s = 0.0;
    for (const auto &tree : _trees)
        s += tree.predict(f);
    return s / static_cast<double>(_trees.size());
}

double
RandomForest::oobMape(const Dataset &data) const
{
    // A forest restored via load() carries no OOB predictions (they
    // are training artifacts); report "no data" as NaN instead of
    // indexing an empty vector.
    if (_oob.size() != data.size()) {
        GPUPM_WARN("oobMape: no OOB data for this forest (loaded from "
                   "a stream, or dataset size mismatch)");
        return std::numeric_limits<double>::quiet_NaN();
    }

    double s = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (!_oob[i] || std::fabs(data.y[i]) < 1e-12)
            continue;
        s += std::fabs((data.y[i] - *_oob[i]) / data.y[i]);
        ++n;
    }
    if (n == 0) {
        // Every row was skipped (no OOB votes, or near-zero targets).
        // 0.0 would read as "perfect accuracy"; report "no data" the
        // same way the size-mismatch guard above does.
        GPUPM_WARN("oobMape: every row skipped (no OOB votes or "
                   "near-zero targets)");
        return std::numeric_limits<double>::quiet_NaN();
    }
    return 100.0 * s / static_cast<double>(n);
}

void
RandomForest::save(std::ostream &os) const
{
    GPUPM_ASSERT(fitted(), "cannot save an unfitted forest");
    os << "forest trees " << _trees.size() << '\n';
    for (const auto &t : _trees)
        t.save(os);
}

std::size_t
detail::readForestHeader(std::istream &is)
{
    ModelReader in(is);
    std::size_t count = 0;
    if (in.token() != "forest" || in.token() != "trees" ||
        !in.number(count)) {
        GPUPM_FATAL("malformed forest header");
    }
    if (count == 0)
        GPUPM_FATAL("forest with zero trees");
    return count;
}

RandomForest
RandomForest::load(std::istream &is)
{
    const std::size_t count = detail::readForestHeader(is);
    RandomForest rf;
    for (std::size_t i = 0; i < count; ++i) {
        DecisionTree tree = DecisionTree::load(is);
        detail::reserveTowards(rf._trees, count);
        rf._trees.push_back(std::move(tree));
    }
    return rf;
}

std::size_t
RandomForest::totalNodes() const
{
    std::size_t total = 0;
    for (const auto &t : _trees)
        total += t.nodeCount();
    return total;
}

} // namespace gpupm::ml
