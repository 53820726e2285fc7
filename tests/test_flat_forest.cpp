/**
 * @file
 * Property tests for the flat batched inference engine: on any fitted
 * forest, FlatForest must be bit-identical to the scalar
 * RandomForest::predict reference - same doubles out, not merely
 * close - across batch shapes, save/load round trips and the
 * shared-prefix walk. Randomized forests and queries (fixed seeds)
 * probe the space of tree shapes a fitted model can take.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "hw/config.hpp"
#include "kernel/perf_model.hpp"
#include "ml/energy.hpp"
#include "ml/features.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "ml/simd.hpp"
#include "ml/trainer.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {
namespace {

/** Exact bit equality; EXPECT_EQ on doubles would accept -0.0 == 0.0. */
::testing::AssertionResult
bitEqual(double a, double b)
{
    std::uint64_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, sizeof(a));
    std::memcpy(&ub, &b, sizeof(b));
    if (ua == ub)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in bits";
}

/** Random regression dataset over the full feature space. */
Dataset
randomData(std::size_t n, std::uint64_t seed)
{
    Dataset d;
    Pcg32 rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        FeatureVector f{};
        for (auto &x : f)
            x = rng.uniform(-4.0, 12.0);
        d.add(f, f[0] * 2.0 + f[10] * f[10] - f[16] +
                     rng.gaussian(0.0, 0.5));
    }
    return d;
}

RandomForest
randomForest(std::uint64_t seed, int trees = 12)
{
    ForestOptions opts;
    opts.numTrees = trees;
    opts.seed = seed;
    RandomForest rf;
    rf.fit(randomData(600, seed ^ 0xabcdULL), opts);
    return rf;
}

std::vector<FeatureVector>
randomQueries(std::size_t n, std::uint64_t seed)
{
    std::vector<FeatureVector> qs(n);
    Pcg32 rng(seed);
    for (auto &q : qs)
        for (auto &x : q)
            x = rng.uniform(-6.0, 14.0); // beyond the training range
    return qs;
}

TEST(FlatForest, FuzzBitIdenticalToScalar)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto rf = randomForest(seed);
        const auto ff = FlatForest::compile(rf);
        EXPECT_EQ(ff.treeCount(), rf.treeCount());
        for (const auto &q : randomQueries(64, seed * 31)) {
            EXPECT_TRUE(bitEqual(ff.predict(q), rf.predict(q)));
        }
    }
}

TEST(FlatForest, BatchShapesMatchScalar)
{
    const auto rf = randomForest(42);
    const auto ff = FlatForest::compile(rf);
    // 1 and 7 take the per-query path, 336 the tree-major path; the
    // duplicate probes that identical inputs stay identical outputs.
    for (std::size_t n : {1u, 7u, 336u}) {
        auto qs = randomQueries(n, n * 977);
        if (n > 2)
            qs[n - 1] = qs[0];
        std::vector<double> out(n);
        ff.predictBatch(qs, out);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(bitEqual(out[i], rf.predict(qs[i])));
    }
}

TEST(FlatForest, SingleTreeCompileMatchesTree)
{
    const auto rf = randomForest(7, 3);
    for (std::size_t t = 0; t < rf.treeCount(); ++t) {
        const auto ff = FlatForest::compile(rf.trees()[t]);
        EXPECT_EQ(ff.treeCount(), 1u);
        for (const auto &q : randomQueries(32, t + 5))
            EXPECT_TRUE(bitEqual(ff.predict(q), rf.trees()[t].predict(q)));
    }
}

TEST(FlatForest, SaveLoadCompileRoundTrip)
{
    const auto rf = randomForest(99);
    std::stringstream ss;
    rf.save(ss);
    const auto loaded = RandomForest::load(ss);
    const auto ff = FlatForest::compile(rf);
    const auto ff2 = FlatForest::compile(loaded);
    EXPECT_EQ(ff.nodeCount(), ff2.nodeCount());
    EXPECT_EQ(ff.leafCount(), ff2.leafCount());
    for (const auto &q : randomQueries(64, 123))
        EXPECT_TRUE(bitEqual(ff.predict(q), ff2.predict(q)));
}

/**
 * End-to-end: the predictor's batched path (per-kernel prediction
 * memo, shared-prefix walk of the misses) must reproduce the
 * pre-FlatForest scalar reference bit for bit, including on repeat
 * batches where every config is served from the memo.
 */
TEST(FlatForest, PredictorBatchMatchesScalarReference)
{
    TrainerOptions opts;
    opts.corpusSize = 6;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    auto pred = trainRandomForestPredictor(opts);

    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto kernel = workload::trainingCorpus(1, 0x5150)[0];
    const auto c0 = hw::ConfigSpace::failSafe();
    const auto est = model.estimate(kernel, c0);
    PredictionQuery q;
    q.counters = model.counters(kernel, c0, est);
    q.instructions = kernel.instructions();

    const auto &cfgs = space.all();
    const double proxy = instructionProxy(q.counters);
    std::vector<Prediction> batch(cfgs.size());
    for (int repeat = 0; repeat < 3; ++repeat) {
        pred->predictBatch(q, cfgs, batch);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const auto feats = makeFeatures(q.counters, cfgs[i]);
            const double ref_t =
                std::exp(pred->timeForest().predict(feats)) * proxy;
            const double ref_p = pred->powerForest().predict(feats);
            EXPECT_TRUE(bitEqual(batch[i].time, ref_t));
            EXPECT_TRUE(bitEqual(batch[i].gpuPower, ref_p));
            // The scalar entry point must agree with the batch.
            const auto single = pred->predict(q, cfgs[i]);
            EXPECT_TRUE(bitEqual(single.time, batch[i].time));
            EXPECT_TRUE(bitEqual(single.gpuPower, batch[i].gpuPower));
        }
    }
}

TEST(FlatForest, EnergyBatchMatchesScalarLoop)
{
    TrainerOptions opts;
    opts.corpusSize = 4;
    opts.configStride = 12;
    opts.forest.numTrees = 6;
    auto pred = trainRandomForestPredictor(opts);

    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto kernel = workload::trainingCorpus(1, 0x77)[0];
    const auto c0 = hw::ConfigSpace::maxPerformance();
    PredictionQuery q;
    q.counters = model.counters(kernel, c0, model.estimate(kernel, c0));
    q.instructions = kernel.instructions();

    EnergyModel energy{hw::ApuParams::defaults()};
    const auto &cfgs = space.all();
    std::vector<EnergyEstimate> batch(cfgs.size());
    energy.estimateBatch(*pred, q, cfgs, batch);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const auto ref = energy.estimate(*pred, q, cfgs[i]);
        EXPECT_TRUE(bitEqual(batch[i].time, ref.time));
        EXPECT_TRUE(bitEqual(batch[i].energy, ref.energy));
    }
}

TEST(FlatForest, LoadRejectsCorruptNodes)
{
    // std::from_chars reads "nan" and "inf" as numbers, so load()'s
    // isfinite() check rejects them; "1e999" is out of range for a
    // double and fails as a truncated node. Either way a corrupted
    // model must die at load time, not poison later predictions.
    std::stringstream nan_value("tree 1 0\n-1 0 0 0 nan\n");
    EXPECT_DEATH(DecisionTree::load(nan_value), "truncated|non-finite");
    std::stringstream inf_thr("tree 1 0\n-1 inf 0 0 1.5\n");
    EXPECT_DEATH(DecisionTree::load(inf_thr), "truncated|non-finite");
    std::stringstream overflow("tree 1 0\n-1 1e999 0 0 1.5\n");
    EXPECT_DEATH(DecisionTree::load(overflow), "truncated|non-finite");
    std::stringstream bad_feat("tree 1 0\n99 0.5 0 0 1.5\n");
    EXPECT_DEATH(DecisionTree::load(bad_feat), "out of range");
    std::stringstream bad_child("tree 2 1\n0 0.5 1 7 0\n-1 0 0 0 1\n");
    EXPECT_DEATH(DecisionTree::load(bad_child), "out of range");
}

TEST(FlatForest, OobMapeOnLoadedForestIsNanNotCrash)
{
    const auto rf = randomForest(31, 4);
    std::stringstream ss;
    rf.save(ss);
    const auto loaded = RandomForest::load(ss);
    EXPECT_FALSE(loaded.hasOobData());
    const auto d = randomData(50, 9);
    EXPECT_TRUE(std::isnan(loaded.oobMape(d)));
}

TEST(FlatForest, ArenasAreCacheLineAligned)
{
    for (std::uint64_t seed : {3u, 8u, 15u}) {
        const auto rf = randomForest(seed);
        EXPECT_EQ(FlatForest::compile(rf).arenaMisalignment(), 0u);
    }
}

/**
 * The row count perfbench reads, through the ml/simd.hpp shim, as
 * ml.rows_per_decision, and the engine name it stamps as simd_path:
 * served rows count once each, OOB rows not at all.
 */
TEST(FlatForest, ForestRowsWalkedCountsServedRows)
{
    const auto rf = randomForest(55);
    const auto ff = FlatForest::compile(rf);
    const auto qs = randomQueries(64, 56);
    std::vector<double> out(qs.size());

    const std::uint64_t r0 = forestRowsWalked();
    const SimdRowStats s0 = simdRowStats();
    ff.predictBatch(qs, out);
    const std::uint64_t r1 = forestRowsWalked();
    EXPECT_EQ(r1 - r0, qs.size());
    (void)ff.predict(qs[0]);
    const std::uint64_t r2 = forestRowsWalked();
    EXPECT_EQ(r2 - r1, 1u);
    const std::vector<std::uint32_t> rows = {0, 5, 9};
    std::vector<double> tree_out(rows.size());
    ff.predictTreeBatch(0, qs, rows, tree_out);
    EXPECT_EQ(forestRowsWalked(), r2);

    const SimdRowStats s1 = simdRowStats();
    EXPECT_EQ(s1.scalar - s0.scalar, r2 - r0);
    EXPECT_EQ(s1.fallback, 0u);
    EXPECT_EQ(s1.avx2, 0u);
    EXPECT_STREQ(toString(resolveSimdPath(defaultSimdMode())), "scalar");
}

// ---------------------------------------------------------------------
// Shared-prefix walk: scalar predictBatch walks each run of rows with
// one kernel prefix once per tree (see flat_forest.hpp).

/**
 * One batch through predictBatch, checked row by row against
 * RandomForest::predict (the training trees, NaN rows included) and the
 * row walk: the single-query path, and a tree-major batch of the same
 * rows with a row of another kernel between every two, so that no run
 * is longer than one row.
 */
void
expectRowWalkResults(const RandomForest &rf, const FlatForest &ff,
                     const std::vector<FeatureVector> &qs)
{
    std::vector<double> out(qs.size());
    ff.predictBatch(qs, out);

    std::vector<FeatureVector> split;
    for (std::size_t i = 0; i < qs.size(); ++i) {
        split.push_back(qs[i]);
        FeatureVector other = qs[i];
        other[0] = 1000.0 + static_cast<double>(i);
        split.push_back(other);
    }
    std::vector<double> split_out(split.size());
    ff.predictBatch(split, split_out);

    for (std::size_t i = 0; i < qs.size(); ++i) {
        EXPECT_TRUE(bitEqual(out[i], rf.predict(qs[i])))
            << "row " << i << " of " << qs.size();
        EXPECT_TRUE(bitEqual(out[i], ff.predict(qs[i])))
            << "row " << i << " of " << qs.size();
        EXPECT_TRUE(bitEqual(out[i], split_out[2 * i]))
            << "row " << i << " of " << qs.size();
    }
}

/**
 * n rows that share their first `shared` features. The rest vary per
 * row: kernel features (below numKernelFeatures) continuously, config
 * features over a few levels each, like the configuration grid.
 */
std::vector<FeatureVector>
prefixRun(std::size_t n, std::size_t shared, Pcg32 &rng)
{
    FeatureVector base{};
    for (auto &x : base)
        x = rng.uniform(-6.0, 14.0);
    std::vector<FeatureVector> qs(n, base);
    for (auto &q : qs) {
        for (std::size_t f = shared;
             f < static_cast<std::size_t>(numFeatures); ++f) {
            if (f < static_cast<std::size_t>(numKernelFeatures)) {
                q[f] = rng.uniform(-6.0, 14.0);
            } else {
                const std::uint32_t levels = 2 + static_cast<std::uint32_t>(f % 6);
                q[f] = -4.0 + 16.0 * rng.nextBounded(levels) /
                                  static_cast<double>(levels - 1);
            }
        }
    }
    return qs;
}

/** Depth-16 trees of thousands of nodes, like the served model's. */
RandomForest
deepForest(std::uint64_t seed)
{
    ForestOptions opts;
    opts.numTrees = 4;
    opts.seed = seed;
    opts.tree.maxDepth = 16;
    opts.tree.minSamplesLeaf = 1;
    opts.tree.minSamplesSplit = 2;
    RandomForest rf;
    rf.fit(randomData(4000, seed ^ 0x5eedULL), opts);
    return rf;
}

TEST(SharedPrefixWalk, MatchesRowWalkAtEveryPrefixLength)
{
    // Prefix lengths 0 and 1 leave the kernel features varying, so each
    // row is its own run and the batch takes the row walk; 10 is one
    // kernel against many configurations; numFeatures is one row
    // repeated, where every split moves the whole set.
    const auto rf = randomForest(61, 16);
    const auto ff = FlatForest::compile(rf);
    Pcg32 rng(62);
    for (const std::size_t shared :
         {std::size_t{0}, std::size_t{1},
          static_cast<std::size_t>(numKernelFeatures),
          static_cast<std::size_t>(numFeatures)}) {
        SCOPED_TRACE(shared);
        expectRowWalkResults(rf, ff, prefixRun(336, shared, rng));
    }
}

TEST(SharedPrefixWalk, DeepTreesMatchRowWalk)
{
    const auto rf = deepForest(63);
    std::size_t deepest = 0;
    for (const auto &tree : rf.trees()) {
        EXPECT_GE(tree.nodeCount(), 2000u);
        deepest = std::max(deepest, static_cast<std::size_t>(tree.depth()));
    }
    EXPECT_EQ(deepest, 16u);
    const auto ff = FlatForest::compile(rf);
    Pcg32 rng(64);
    for (const std::size_t shared :
         {std::size_t{0}, std::size_t{1},
          static_cast<std::size_t>(numKernelFeatures),
          static_cast<std::size_t>(numFeatures)}) {
        SCOPED_TRACE(shared);
        expectRowWalkResults(rf, ff, prefixRun(336, shared, rng));
    }
    // Free features with all-distinct values: no two rows share a
    // split outcome by value, only by where thresholds fall.
    auto qs = prefixRun(200, numKernelFeatures, rng);
    for (std::size_t i = 0; i < qs.size(); ++i)
        for (std::size_t f = numKernelFeatures;
             f < static_cast<std::size_t>(numFeatures); ++f)
            qs[i][f] = rng.uniform(-6.0, 14.0);
    expectRowWalkResults(rf, ff, qs);
}

TEST(SharedPrefixWalk, RunLengthsAcrossCutOverAndBitsetWidth)
{
    // Every length up to 70 crosses the row-walk cut-over and the first
    // bitset word boundary; the rest straddle later word boundaries and
    // the bitset width, past which a run is walked in chunks.
    const auto rf = randomForest(65, 8);
    const auto ff = FlatForest::compile(rf);
    Pcg32 rng(66);
    std::vector<std::size_t> lengths;
    for (std::size_t n = 1; n <= 70; ++n)
        lengths.push_back(n);
    for (const std::size_t n : {127u, 128u, 129u, 255u, 256u, 257u, 511u,
                                512u, 513u, 700u, 1024u, 1025u})
        lengths.push_back(n);
    for (const std::size_t n : lengths) {
        SCOPED_TRACE(n);
        expectRowWalkResults(rf, ff,
                             prefixRun(n, numKernelFeatures, rng));
    }
}

TEST(SharedPrefixWalk, ConcatenatedKernelsMatchRowWalk)
{
    // Several kernels' rows back to back, long runs
    // (walked shared, one of them in chunks) between short ones (row
    // walked, including a short run right after a long one).
    const auto rf = deepForest(67);
    const auto ff = FlatForest::compile(rf);
    Pcg32 rng(68);
    std::vector<FeatureVector> qs;
    for (const std::size_t n :
         {3u, 336u, 20u, 1u, 16u, 15u, 600u, 17u, 64u, 2u})
        for (const auto &q : prefixRun(n, numKernelFeatures, rng))
            qs.push_back(q);
    expectRowWalkResults(rf, ff, qs);
}

TEST(SharedPrefixWalk, NonFiniteAndSignedZeroValues)
{
    const auto rf = deepForest(69);
    const auto ff = FlatForest::compile(rf);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    Pcg32 rng(70);
    auto qs = prefixRun(200, numKernelFeatures, rng);
    const double specials[] = {nan, inf, -inf, -0.0, 0.0, 1.5, 3.0};
    for (std::size_t i = 0; i < qs.size(); ++i) {
        auto &q = qs[i];
        // Shared features holding NaN, +-inf and -0.0.
        q[2] = nan;
        q[3] = inf;
        q[4] = -inf;
        q[5] = -0.0;
        // Free: a mix of specials; +0.0 and -0.0 alone (one distinct
        // value, two bit patterns); one value with some NaN rows; and
        // all-distinct values.
        q[10] = specials[i % std::size(specials)];
        q[11] = (i % 2) ? -0.0 : 0.0;
        q[12] = (i % 7 == 0) ? nan : 2.5;
        q[13] = -4.0 + 0.07 * static_cast<double>(i);
    }
    expectRowWalkResults(rf, ff, qs);

    // Every free value a split can see, on a run that is all specials.
    for (std::size_t i = 0; i < qs.size(); ++i)
        for (std::size_t f = numKernelFeatures;
             f < static_cast<std::size_t>(numFeatures); ++f)
            qs[i][f] = specials[(i + f) % std::size(specials)];
    expectRowWalkResults(rf, ff, qs);

    // NaN beside a value above every threshold: each split on a free
    // feature sends the finite rows right and the NaN rows left.
    for (std::size_t i = 0; i < qs.size(); ++i)
        for (std::size_t f = numKernelFeatures;
             f < static_cast<std::size_t>(numFeatures); ++f)
            qs[i][f] = (i + f) % 3 == 0 ? nan : 100.0;
    expectRowWalkResults(rf, ff, qs);
}

TEST(SharedPrefixWalk, ValuesEqualToThresholds)
{
    // A value equal to a split's threshold goes left. Pin the kernel
    // features to the thresholds of the splits tree 0 meets on the
    // run's path, and draw every free value from the thresholds the
    // forest splits that feature at, so ties happen at shared and at
    // free splits alike.
    const auto rf = deepForest(73);
    const auto ff = FlatForest::compile(rf);
    std::vector<std::vector<double>> thresholds(numFeatures);
    for (const auto &tree : rf.trees())
        for (const auto &n : tree.nodes())
            if (n.feature >= 0)
                thresholds[static_cast<std::size_t>(n.feature)].push_back(
                    n.threshold);

    Pcg32 rng(74);
    FeatureVector base{};
    for (auto &x : base)
        x = rng.uniform(-4.0, 12.0);
    std::array<bool, numFeatures> pinned{};
    const auto &nodes = rf.trees()[0].nodes();
    std::size_t ties = 0;
    for (std::size_t i = 0; nodes[i].feature >= 0;) {
        const auto f = static_cast<std::size_t>(nodes[i].feature);
        if (f < static_cast<std::size_t>(numKernelFeatures) && !pinned[f]) {
            base[f] = nodes[i].threshold;
            pinned[f] = true;
            ++ties;
        }
        i = static_cast<std::size_t>(base[f] > nodes[i].threshold
                                         ? nodes[i].right
                                         : nodes[i].left);
    }
    ASSERT_GT(ties, 0u);

    // Free values drawn from every threshold (many distinct values)
    // and from five of them (a config-like handful).
    for (const std::uint32_t pool : {0u, 5u}) {
        std::vector<FeatureVector> qs(300, base);
        for (auto &q : qs)
            for (std::size_t f = numKernelFeatures;
                 f < static_cast<std::size_t>(numFeatures); ++f)
                q[f] = thresholds[f][rng.nextBounded(
                    pool != 0 ? pool
                              : static_cast<std::uint32_t>(
                                    thresholds[f].size()))];
        expectRowWalkResults(rf, ff, qs);
    }
}

/**
 * Three hand-built trees whose leaves cancel only in tree order: tree 0
 * adds 1 or 3, tree 1 adds 2^53 or 2^54 and tree 2 subtracts the same
 * (both split on feature 10 at 0.5). Tree order absorbs the small leaf
 * into the large one before the cancellation; any other order keeps
 * it, so a sum in another order (by the depth the leaves sit at, by
 * walk order, reversed) changes the result. The trees have depths 3, 1
 * and 2, so the walk reaches tree 1's leaves first.
 */
TEST(SharedPrefixWalk, LeavesAccumulateInTreeOrder)
{
    std::stringstream text(
        "forest trees 3\n"
        "tree 11 3\n"
        "12 0.5 1 2 0\n13 0.5 3 4 0\n13 0.5 5 6 0\n14 0.5 7 8 0\n"
        "-1 0 0 0 3\n-1 0 0 0 1\n14 0.5 9 10 0\n-1 0 0 0 1\n"
        "-1 0 0 0 3\n-1 0 0 0 3\n-1 0 0 0 1\n"
        "tree 3 1\n"
        "10 0.5 1 2 0\n-1 0 0 0 9007199254740992\n"
        "-1 0 0 0 18014398509481984\n"
        "tree 7 2\n"
        "11 0.5 1 2 0\n10 0.5 3 4 0\n10 0.5 5 6 0\n"
        "-1 0 0 0 -9007199254740992\n-1 0 0 0 -18014398509481984\n"
        "-1 0 0 0 -9007199254740992\n-1 0 0 0 -18014398509481984\n");
    const auto rf = RandomForest::load(text);
    const auto ff = FlatForest::compile(rf);

    std::vector<FeatureVector> qs(64);
    bool order_matters = false;
    for (std::size_t i = 0; i < qs.size(); ++i) {
        qs[i].fill(0.25);
        for (std::size_t b = 0; b < 5; ++b)
            qs[i][10 + b] = ((i >> b) & 1) ? 1.0 : 0.0;
        const double a = rf.trees()[0].predict(qs[i]);
        const double big = rf.trees()[1].predict(qs[i]);
        const double neg = rf.trees()[2].predict(qs[i]);
        const double in_order = ((0.0 + a) + big) + neg;
        order_matters = order_matters || !bitEqual(in_order, (big + neg) + a) ||
                        !bitEqual(in_order, (a + neg) + big);
        EXPECT_FALSE(bitEqual(in_order, (big + neg) + a));
    }
    EXPECT_TRUE(order_matters);
    expectRowWalkResults(rf, ff, qs);
}

TEST(SharedPrefixWalk, ConcurrentWalksOfOneForest)
{
    // Two threads walk one forest at once, each with its own runs; the
    // walk's scratch is per thread and the forest is read-only.
    const auto rf = deepForest(71);
    const auto ff = FlatForest::compile(rf);
    Pcg32 rng(72);
    const std::vector<std::vector<FeatureVector>> batches = {
        prefixRun(336, numKernelFeatures, rng),
        prefixRun(40, numKernelFeatures, rng),
        prefixRun(700, numKernelFeatures, rng),
        prefixRun(17, numKernelFeatures, rng),
    };
    std::vector<std::vector<double>> expected;
    for (const auto &qs : batches) {
        std::vector<double> ref(qs.size());
        for (std::size_t i = 0; i < qs.size(); ++i)
            ref[i] = rf.predict(qs[i]);
        expected.push_back(std::move(ref));
    }

    std::atomic<int> mismatches{0};
    const auto worker = [&](std::size_t first) {
        for (int round = 0; round < 6; ++round) {
            for (std::size_t b = first; b < batches.size(); b += 2) {
                std::vector<double> out(batches[b].size());
                ff.predictBatch(batches[b], out);
                for (std::size_t i = 0; i < out.size(); ++i)
                    if (!bitEqual(out[i], expected[b][i]))
                        mismatches.fetch_add(1);
            }
        }
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    a.join();
    b.join();
    EXPECT_EQ(mismatches.load(), 0);
}

} // namespace
} // namespace gpupm::ml
