/**
 * @file
 * Property tests for the flat batched inference engine: on any fitted
 * forest, FlatForest must be bit-identical to the scalar
 * RandomForest::predict reference - same doubles out, not merely
 * close - across batch shapes, save/load round trips, and partial
 * evaluation. Randomized forests and queries (fixed seeds) probe the
 * space of tree shapes a fitted model can take.
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

TEST(FlatForest, SpecializeBitIdenticalForMatchingPrefix)
{
    const auto rf = randomForest(1234, 10);
    const auto ff = FlatForest::compile(rf);
    Pcg32 rng(555);
    for (int round = 0; round < 4; ++round) {
        std::vector<double> prefix(numKernelFeatures);
        for (auto &x : prefix)
            x = rng.uniform(-6.0, 14.0);
        const auto resid = ff.specialize(prefix);
        // Contracting the fixed-feature splits can only shrink a tree.
        EXPECT_EQ(resid.treeCount(), ff.treeCount());
        EXPECT_LE(resid.nodeCount(), ff.nodeCount());

        auto qs = randomQueries(48, 556 + round);
        for (auto &q : qs)
            for (int k = 0; k < numKernelFeatures; ++k)
                q[static_cast<std::size_t>(k)] =
                    prefix[static_cast<std::size_t>(k)];
        std::vector<double> a(qs.size()), b(qs.size());
        ff.predictBatch(qs, a);
        resid.predictBatch(qs, b);
        for (std::size_t i = 0; i < qs.size(); ++i) {
            EXPECT_TRUE(bitEqual(a[i], b[i]));
            EXPECT_TRUE(bitEqual(b[i], rf.predict(qs[i])));
        }
    }
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
    // Non-finite numerals never make it past the istream parse on this
    // toolchain (failbit on "nan"/"inf"/overflow), so they surface as
    // truncation; the explicit isfinite() check in load() backstops
    // parsers that do admit them. Either way a corrupted model must
    // die at load time, not poison later predictions.
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

// ---------------------------------------------------------------------
// Quantized engine (SimdMode::Auto / Avx2 / Fallback).

/**
 * Independent quantized oracle: walk the *training* tree
 * representation with the flat forest's own quantizers. Exercises
 * none of the arena packing, SoA mirrors or SIMD kernels, so
 * agreement with FlatForest pins the whole quantized pipeline.
 */
double
quantReference(const RandomForest &rf, const FlatForest &ff,
               const FeatureVector &q)
{
    std::array<std::int16_t, numFeatures> qx{};
    for (std::size_t j = 0; j < static_cast<std::size_t>(numFeatures);
         ++j)
        qx[j] = FlatForest::quantizeFeature(ff.quantizer(j), q[j]);

    double s = 0.0;
    for (const auto &tree : rf.trees()) {
        const auto &nodes = tree.nodes();
        std::size_t i = 0;
        while (nodes[i].feature >= 0) {
            const auto &n = nodes[i];
            const auto f = static_cast<std::size_t>(n.feature);
            const std::int16_t qt = FlatForest::quantizeThreshold(
                ff.quantizer(f), n.threshold);
            i = static_cast<std::size_t>(qx[f] > qt ? n.right : n.left);
        }
        s += nodes[i].value;
    }
    return s / static_cast<double>(rf.treeCount());
}

/** Queries seeded with every nasty double the extractor could emit. */
std::vector<FeatureVector>
hostileQueries(std::uint64_t seed)
{
    auto qs = randomQueries(40, seed);
    Pcg32 rng(seed ^ 0xfeedULL);
    const double specials[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        1e300,
        -1e300,
        -0.0,
        0.0,
    };
    for (auto &q : qs) {
        // One to four special values per query, the rest in-range.
        const int k = 1 + static_cast<int>(rng.nextU32() % 4u);
        for (int j = 0; j < k; ++j)
            q[rng.nextU32() % static_cast<std::uint32_t>(numFeatures)] =
                specials[rng.nextU32() % std::size(specials)];
    }
    return qs;
}

TEST(FlatForest, QuantizedMatchesIndependentReferenceWalk)
{
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        const auto rf = randomForest(seed);
        auto ff = FlatForest::compile(rf);
        ff.setSimdMode(SimdMode::Auto);
        const auto qs = randomQueries(96, seed * 17);
        std::vector<double> out(qs.size());
        ff.predictBatch(qs, out);
        for (std::size_t i = 0; i < qs.size(); ++i) {
            EXPECT_TRUE(bitEqual(out[i], quantReference(rf, ff, qs[i])));
            EXPECT_TRUE(bitEqual(ff.predict(qs[i]), out[i]));
        }
    }
}

TEST(FlatForest, QuantizedFallbackAndAvx2BitIdentical)
{
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        const auto rf = randomForest(seed);
        auto avx = FlatForest::compile(rf);
        auto fb = FlatForest::compile(rf);
        avx.setSimdMode(SimdMode::Avx2);
        fb.setSimdMode(SimdMode::Fallback);
        ASSERT_EQ(avx.simdPath(), SimdPath::FixedAvx2);
        ASSERT_EQ(fb.simdPath(), SimdPath::FixedPortable);
        // Hostile values included: the two kernels must agree on every
        // representable input, not just friendly ones. Batch sizes
        // cover the 8-trees-per-query, 16-tree AVX2 grouping, the
        // tree-major rows kernel, and the scalar row tail.
        for (std::size_t n : {1u, 5u, 9u, 40u, 336u}) {
            auto qs = hostileQueries(seed * 7 + n);
            qs.resize(n, qs[0]);
            std::vector<double> a(n), b(n);
            avx.predictBatch(qs, a);
            fb.predictBatch(qs, b);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(bitEqual(a[i], b[i]));
        }
    }
}

/**
 * The vectorized row quantizer must agree with quantizeFeature on
 * every element - every slot of every row, including the NaN
 * sentinel, never-split features, saturated non-finite values and the
 * zeroed stride padding - across batch sizes that exercise the
 * 8-wide loop, the 4-wide step and the scalar remainder.
 */
TEST(FlatForest, QuantizeRowsAvx2BitIdenticalToScalar)
{
    if (!cpuSupportsAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    for (std::uint64_t seed = 61; seed <= 64; ++seed) {
        const auto rf = randomForest(seed);
        auto ff = FlatForest::compile(rf);
        ff.setSimdMode(SimdMode::Avx2);
        ASSERT_EQ(ff.simdPath(), SimdPath::FixedAvx2);
        for (std::size_t n : {1u, 3u, 8u, 33u}) {
            auto qs = hostileQueries(seed * 131 + n);
            qs.resize(n, qs[0]);
            constexpr std::size_t stride =
                FlatForest::kQuantRowStride;
            std::vector<std::int16_t> rows(n * stride, 17);
            ff.quantizeRows(qs, rows.data());
            for (std::size_t r = 0; r < n; ++r) {
                for (std::size_t j = 0;
                     j < static_cast<std::size_t>(numFeatures); ++j)
                    EXPECT_EQ(rows[r * stride + j],
                              FlatForest::quantizeFeature(
                                  ff.quantizer(j), qs[r][j]))
                        << "row " << r << " feature " << j;
                for (std::size_t j =
                         static_cast<std::size_t>(numFeatures);
                     j < stride; ++j)
                    EXPECT_EQ(rows[r * stride + j], 0)
                        << "row " << r << " padding slot " << j;
            }
        }
    }
}

TEST(FlatForest, QuantizedHandlesNonFiniteAndDenormalFeatures)
{
    const auto rf = randomForest(77);
    auto ff = FlatForest::compile(rf);
    ff.setSimdMode(SimdMode::Auto);
    const auto qs = hostileQueries(0x9d);
    std::vector<double> out(qs.size());
    ff.predictBatch(qs, out);
    for (std::size_t i = 0; i < qs.size(); ++i) {
        // Any double in, a real leaf mean out - and exactly the one
        // the independent quantized oracle produces.
        EXPECT_TRUE(std::isfinite(out[i]));
        EXPECT_TRUE(bitEqual(out[i], quantReference(rf, ff, qs[i])));
    }
}

TEST(FlatForest, QuantizeFeatureSaturatesAtInt16Edges)
{
    // Span 10 starting at 2: one cell is 10/32000.
    const FlatForest::FeatureQuantizer qz{
        2.0, FlatForest::kQuantCells / 10.0};
    const auto q = [&](double x) {
        return FlatForest::quantizeFeature(qz, x);
    };
    constexpr std::int16_t bias = FlatForest::kQuantBias;
    // Grid interior maps affinely...
    EXPECT_EQ(q(2.0), -bias);
    EXPECT_EQ(q(12.0), bias);
    EXPECT_EQ(q(7.0), 0);
    // ...and everything beyond saturates one cell outside the grid,
    // below every threshold on the low side and above every real
    // threshold (but never the leaf sentinel) on the high side.
    EXPECT_EQ(q(-1e308), -bias - 1);
    EXPECT_EQ(q(-std::numeric_limits<double>::infinity()), -bias - 1);
    EXPECT_EQ(q(1e308), bias + 1);
    EXPECT_EQ(q(std::numeric_limits<double>::infinity()), bias + 1);
    EXPECT_LT(bias + 1, FlatForest::kQuantLeafThr);
    // NaN parks at INT16_MIN: always left, like `NaN > t` in float.
    EXPECT_EQ(q(std::numeric_limits<double>::quiet_NaN()),
              std::numeric_limits<std::int16_t>::min());
    // Denormals behave as the tiny numbers they are.
    EXPECT_EQ(q(std::numeric_limits<double>::denorm_min()), q(0.0));
    // Thresholds clamp *into* the grid so features can exceed them.
    EXPECT_EQ(FlatForest::quantizeThreshold(qz, -1e308), -bias);
    EXPECT_EQ(FlatForest::quantizeThreshold(qz, 1e308), bias);
    // Inactive features (no split anywhere) pin to a single cell.
    const FlatForest::FeatureQuantizer off{0.0, 0.0};
    EXPECT_EQ(FlatForest::quantizeFeature(off, 123.0), 0);
    EXPECT_EQ(FlatForest::quantizeFeature(off, -123.0), 0);
}

/**
 * The pinned quantization-error model: a quantized tree's answer may
 * deviate from the float oracle's only if the float walk passed
 * within one quantization cell (1/32000 of that feature's threshold
 * span) of some threshold - and the aggregate forest error stays
 * small because such near-threshold passes are rare.
 */
TEST(FlatForest, QuantizedErrorWithinPinnedBound)
{
    std::size_t flipped_trees = 0, total_trees = 0;
    double max_rel_err = 0.0;
    for (std::uint64_t seed = 31; seed <= 36; ++seed) {
        const auto rf = randomForest(seed);
        auto ff = FlatForest::compile(rf);
        ff.setSimdMode(SimdMode::Auto);
        for (const auto &q : randomQueries(128, seed * 13)) {
            double scalar_sum = 0.0, quant_sum = 0.0;
            for (const auto &tree : rf.trees()) {
                const auto &nodes = tree.nodes();
                // Float walk, tracking the closest approach to any
                // threshold in units of that feature's cell width.
                double min_margin_cells =
                    std::numeric_limits<double>::infinity();
                std::size_t i = 0;
                while (nodes[i].feature >= 0) {
                    const auto &n = nodes[i];
                    const auto f = static_cast<std::size_t>(n.feature);
                    min_margin_cells = std::min(
                        min_margin_cells,
                        std::abs(q[f] - n.threshold) *
                            ff.quantizer(f).inv);
                    i = static_cast<std::size_t>(
                        q[f] > n.threshold ? n.right : n.left);
                }
                const double scalar_leaf = nodes[i].value;

                // Quantized walk on the same tree.
                std::size_t j = 0;
                while (nodes[j].feature >= 0) {
                    const auto &n = nodes[j];
                    const auto f = static_cast<std::size_t>(n.feature);
                    const auto qx = FlatForest::quantizeFeature(
                        ff.quantizer(f), q[f]);
                    const auto qt = FlatForest::quantizeThreshold(
                        ff.quantizer(f), n.threshold);
                    j = static_cast<std::size_t>(qx > qt ? n.right
                                                         : n.left);
                }
                const double quant_leaf = nodes[j].value;

                ++total_trees;
                if (!bitEqual(scalar_leaf, quant_leaf)) {
                    ++flipped_trees;
                    // The pinned bound: deviation implies a
                    // within-one-cell pass (plus float slop).
                    EXPECT_LE(min_margin_cells, 1.0 + 1e-6)
                        << "tree deviated without a near-threshold "
                           "pass (seed "
                        << seed << ")";
                }
                scalar_sum += scalar_leaf;
                quant_sum += quant_leaf;
            }
            const double scalar_pred =
                scalar_sum / static_cast<double>(rf.treeCount());
            const double quant_pred =
                quant_sum / static_cast<double>(rf.treeCount());
            // And the engine agrees with the per-tree replay above.
            EXPECT_TRUE(bitEqual(ff.predict(q), quant_pred));
            if (scalar_pred != 0.0)
                max_rel_err = std::max(
                    max_rel_err, std::abs(quant_pred - scalar_pred) /
                                     std::abs(scalar_pred));
        }
    }
    // Near-threshold passes are ~1/32000 per comparison: a few tree
    // flips across ~90k walks, never a broad drift.
    EXPECT_LT(static_cast<double>(flipped_trees),
              0.002 * static_cast<double>(total_trees));
    EXPECT_LT(max_rel_err, 0.05);
}

TEST(FlatForest, QuantizedSpecializeBitIdenticalToFullWalk)
{
    const auto rf = randomForest(4321, 10);
    auto ff = FlatForest::compile(rf);
    ff.setSimdMode(SimdMode::Auto);
    Pcg32 rng(777);
    for (int round = 0; round < 4; ++round) {
        std::vector<double> prefix(numKernelFeatures);
        for (auto &x : prefix)
            x = rng.uniform(-6.0, 14.0);
        const auto resid = ff.specialize(prefix);
        // The residual inherits the parent's engine and quantizers.
        EXPECT_EQ(resid.simdMode(), ff.simdMode());
        EXPECT_EQ(resid.simdPath(), ff.simdPath());

        auto qs = randomQueries(48, 778 + round);
        for (auto &q : qs)
            for (int k = 0; k < numKernelFeatures; ++k)
                q[static_cast<std::size_t>(k)] =
                    prefix[static_cast<std::size_t>(k)];
        std::vector<double> a(qs.size()), b(qs.size());
        ff.predictBatch(qs, a);
        resid.predictBatch(qs, b);
        for (std::size_t i = 0; i < qs.size(); ++i)
            EXPECT_TRUE(bitEqual(a[i], b[i]));
    }
}

/**
 * The thread-local residual cache behind predictBatch must never
 * change results, no matter where in its lifecycle a call lands
 * (candidate accumulating, residual just built, prefix changed under
 * a live entry). Hammer one forest with small shared-prefix batches
 * interleaved with single-row probes - the exact shape of a cold MPC
 * decision - across several prefix epochs, and compare every output
 * against a fresh compile of the same forest whose single-row calls
 * always walk the full arena (one row can neither witness a shared
 * prefix nor match a candidate no other call created).
 */
TEST(FlatForest, ResidualCacheBitIdenticalAndNeverStale)
{
    const auto rf = randomForest(31);
    auto ff = FlatForest::compile(rf);
    ff.setSimdMode(SimdMode::Fallback);
    EXPECT_NE(ff.arenaId(), 0u);

    Pcg32 rng(0x51ca);
    for (int epoch = 0; epoch < 4; ++epoch) {
        const double tag = 1.0 + 0.37 * epoch;
        for (int call = 0; call < 8; ++call) {
            const std::size_t n = (call % 2) ? 5 : 1;
            std::vector<FeatureVector> qs(n);
            for (auto &q : qs) {
                for (auto &x : q)
                    x = rng.uniform(-6.0, 14.0);
                for (int f = 0; f < numKernelFeatures; ++f)
                    q[static_cast<std::size_t>(f)] =
                        tag + static_cast<double>(f);
            }
            std::vector<double> out(n);
            ff.predictBatch(qs, out);
            for (std::size_t i = 0; i < n; ++i) {
                auto ref = FlatForest::compile(rf);
                ref.setSimdMode(SimdMode::Fallback);
                EXPECT_NE(ref.arenaId(), ff.arenaId());
                EXPECT_TRUE(bitEqual(out[i], ref.predict(qs[i])));
            }
        }
    }
}

/**
 * Quantized analog of PredictorBatchMatchesScalarReference: whatever
 * mix of memo hits, residual forests and cold single queries serves a
 * request, a quantized predictor must return one prediction per
 * (counters, config) - never a value that depends on cache state.
 */
TEST(FlatForest, QuantizedPredictorConsistentAcrossEntryPoints)
{
    TrainerOptions opts;
    opts.corpusSize = 6;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    opts.simd = SimdMode::Auto;
    auto pred = trainRandomForestPredictor(opts);
    EXPECT_EQ(pred->simdMode(), SimdMode::Auto);
    EXPECT_NE(pred->simdPath(), SimdPath::Float64);

    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto kernel = workload::trainingCorpus(1, 0x5150)[0];
    const auto c0 = hw::ConfigSpace::failSafe();
    const auto est = model.estimate(kernel, c0);
    PredictionQuery q;
    q.counters = model.counters(kernel, c0, est);
    q.instructions = kernel.instructions();

    const auto &cfgs = space.all();
    // Cold single first (n == 1 never claims the cache entry), then
    // the batched path (residual specialization + memo), then repeats
    // served from the memo: all must agree bit for bit.
    std::vector<Prediction> cold(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        cold[i] = pred->predict(q, cfgs[i]);
    std::vector<Prediction> batch(cfgs.size());
    for (int repeat = 0; repeat < 3; ++repeat) {
        pred->predictBatch(q, cfgs, batch);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            EXPECT_TRUE(bitEqual(batch[i].time, cold[i].time));
            EXPECT_TRUE(bitEqual(batch[i].gpuPower, cold[i].gpuPower));
        }
    }
}

TEST(FlatForest, ArenasAreCacheLineAligned)
{
    for (std::uint64_t seed : {3u, 8u, 15u}) {
        const auto rf = randomForest(seed);
        auto ff = FlatForest::compile(rf);
        EXPECT_EQ(ff.arenaMisalignment(), 0u);
        // Residual arenas are fresh allocations; same guarantee.
        std::vector<double> prefix(numKernelFeatures, 1.0);
        EXPECT_EQ(ff.specialize(prefix).arenaMisalignment(), 0u);
    }
}

TEST(FlatForest, SimdRowCountersAdvancePerPath)
{
    const auto rf = randomForest(55);
    const auto qs = randomQueries(64, 56);
    std::vector<double> out(qs.size());

    auto ff = FlatForest::compile(rf);
    const auto before = simdRowStats();
    ff.predictBatch(qs, out); // scalar default
    ff.setSimdMode(SimdMode::Fallback);
    ff.predictBatch(qs, out);
    const auto mid = simdRowStats();
    EXPECT_EQ(mid.scalar - before.scalar, qs.size());
    EXPECT_EQ(mid.fallback - before.fallback, qs.size());
    if (cpuSupportsAvx2()) {
        ff.setSimdMode(SimdMode::Avx2);
        ff.predictBatch(qs, out);
        const auto after = simdRowStats();
        EXPECT_EQ(after.avx2 - mid.avx2, qs.size());
    }
}

TEST(FlatForest, SimdModeParsingRoundTrips)
{
    for (const auto m : {SimdMode::Scalar, SimdMode::Auto,
                         SimdMode::Avx2, SimdMode::Fallback})
        EXPECT_EQ(parseSimdMode(toString(m)), m);
    EXPECT_EQ(parseSimdMode("avx512"), std::nullopt);
    EXPECT_EQ(parseSimdMode(""), std::nullopt);
    // Requests degrade but never fail: every mode resolves to a path.
    for (const auto m : {SimdMode::Scalar, SimdMode::Auto,
                         SimdMode::Avx2, SimdMode::Fallback}) {
        const auto p = resolveSimdPath(m);
        EXPECT_TRUE(p == SimdPath::Float64 ||
                    p == SimdPath::FixedPortable ||
                    p == SimdPath::FixedAvx2);
    }
    EXPECT_EQ(resolveSimdPath(SimdMode::Scalar), SimdPath::Float64);
    EXPECT_EQ(resolveSimdPath(SimdMode::Fallback),
              SimdPath::FixedPortable);
}

// ---------------------------------------------------------------------
// Shared-prefix walk: scalar predictBatch walks each run of rows with
// one kernel prefix once per tree (see flat_forest.hpp).

/**
 * Independent reference with the flat engine's split rule: walk the
 * training trees, going right iff `feature > threshold`, and sum the
 * leaves in tree order. Equal to RandomForest::predict on every row
 * without NaN; its `<=` sends a NaN feature right where the flat
 * engines (both walks alike) send it left.
 */
double
greaterWalk(const RandomForest &rf, const FeatureVector &q)
{
    double s = 0.0;
    for (const auto &tree : rf.trees()) {
        const auto &nodes = tree.nodes();
        std::size_t i = 0;
        while (nodes[i].feature >= 0) {
            const auto &n = nodes[i];
            i = static_cast<std::size_t>(
                q[static_cast<std::size_t>(n.feature)] > n.threshold
                    ? n.right
                    : n.left);
        }
        s += nodes[i].value;
    }
    return s / static_cast<double>(rf.treeCount());
}

bool
hasNaN(const FeatureVector &q)
{
    return std::any_of(q.begin(), q.end(),
                       [](double v) { return std::isnan(v); });
}

/**
 * One batch through predictBatch, checked row by row against
 * greaterWalk, RandomForest::predict (rows without NaN) and the row
 * walk: the single-query path, and a tree-major batch of the same rows
 * with a row of another kernel between every two, so that no run is
 * longer than one row.
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
        EXPECT_TRUE(bitEqual(out[i], greaterWalk(rf, qs[i])))
            << "row " << i << " of " << qs.size();
        if (!hasNaN(qs[i])) {
            EXPECT_TRUE(bitEqual(out[i], rf.predict(qs[i])))
                << "row " << i << " of " << qs.size();
        }
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
    // A broker flush: several kernels' rows back to back, long runs
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
            ref[i] = greaterWalk(rf, qs[i]);
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
