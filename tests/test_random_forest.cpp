#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/stats.hpp"
#include "ml/random_forest.hpp"

namespace gpupm::ml {
namespace {

FeatureVector
fv(double x, double y = 0.0)
{
    FeatureVector f{};
    f[0] = x;
    f[1] = y;
    return f;
}

Dataset
noisyLinearData(std::size_t n, std::uint64_t seed)
{
    Dataset d;
    Pcg32 rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        double x = rng.uniform(0, 10);
        double y = rng.uniform(0, 10);
        // Positive target bounded away from zero so MAPE is sane.
        d.add(fv(x, y), 3.0 * x + y + 5.0 + rng.gaussian(0.0, 0.3));
    }
    return d;
}

TEST(RandomForest, FitsAndPredicts)
{
    auto d = noisyLinearData(2000, 1);
    RandomForest rf;
    ForestOptions opts;
    opts.numTrees = 30;
    // mtry 0 = all features: with only two informative features, a
    // tiny random subset would frequently leave a node unsplittable.
    opts.tree.mtry = 0;
    rf.fit(d, opts);
    EXPECT_TRUE(rf.fitted());
    EXPECT_EQ(rf.treeCount(), 30u);
    EXPECT_NEAR(rf.predict(fv(5.0, 5.0)), 25.0, 1.5);
    EXPECT_NEAR(rf.predict(fv(8.0, 2.0)), 31.0, 2.5);
}

TEST(RandomForest, DeterministicInSeed)
{
    auto d = noisyLinearData(500, 2);
    ForestOptions opts;
    opts.numTrees = 10;
    opts.seed = 77;
    RandomForest a, b;
    a.fit(d, opts);
    b.fit(d, opts);
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(a.predict(fv(i * 0.5, i * 0.3)),
                         b.predict(fv(i * 0.5, i * 0.3)));
}

TEST(RandomForest, DifferentSeedsDiffer)
{
    auto d = noisyLinearData(500, 3);
    ForestOptions opts;
    opts.numTrees = 10;
    opts.seed = 1;
    RandomForest a;
    a.fit(d, opts);
    opts.seed = 2;
    RandomForest b;
    b.fit(d, opts);
    bool any_diff = false;
    for (int i = 0; i < 20 && !any_diff; ++i)
        any_diff = a.predict(fv(i * 0.5, 1.0)) !=
                   b.predict(fv(i * 0.5, 1.0));
    EXPECT_TRUE(any_diff);
}

TEST(RandomForest, OobPredictionsMostlyPresent)
{
    auto d = noisyLinearData(500, 4);
    RandomForest rf;
    ForestOptions opts;
    opts.numTrees = 40;
    rf.fit(d, opts);
    const auto &oob = rf.oobPredictions();
    ASSERT_EQ(oob.size(), d.size());
    std::size_t present = 0;
    for (const auto &p : oob)
        present += p.has_value();
    // With 40 bootstrap trees, nearly every row is OOB somewhere.
    EXPECT_GT(present, d.size() * 95 / 100);
}

TEST(RandomForest, OobErrorIsHonest)
{
    auto d = noisyLinearData(2000, 5);
    RandomForest rf;
    ForestOptions opts;
    opts.numTrees = 40;
    opts.tree.mtry = 1;
    rf.fit(d, opts);
    const double oob_mape = rf.oobMape(d);
    EXPECT_GT(oob_mape, 0.0);
    EXPECT_LT(oob_mape, 50.0);
}

TEST(RandomForest, EnsembleBeatsSingleTreeOnNoise)
{
    // Compare generalization: single deep tree vs forest on held-out
    // points of a noisy function.
    auto train = noisyLinearData(1500, 6);
    auto test = noisyLinearData(300, 7);

    ForestOptions single;
    single.numTrees = 1;
    single.tree.mtry = 1;
    RandomForest one;
    one.fit(train, single);

    ForestOptions many = single;
    many.numTrees = 50;
    RandomForest forest;
    forest.fit(train, many);

    double err_one = 0.0, err_many = 0.0;
    for (std::size_t i = 0; i < test.size(); ++i) {
        err_one += std::fabs(one.predict(test.x[i]) - test.y[i]);
        err_many += std::fabs(forest.predict(test.x[i]) - test.y[i]);
    }
    EXPECT_LT(err_many, err_one);
}

TEST(RandomForest, ParallelFitByteIdentical)
{
    // Bootstrap sets and per-tree rng streams are pre-drawn serially,
    // so the fitted forest — trees and OOB predictions — must be
    // byte-identical at every job count.
    auto d = noisyLinearData(600, 11);
    ForestOptions opts;
    opts.numTrees = 12;
    opts.tree.mtry = 1;
    opts.seed = 42;
    RandomForest serial;
    serial.fit(d, opts); // jobs = 1, exact serial path
    std::ostringstream ref;
    serial.save(ref);

    for (const std::size_t jobs : {2u, 8u}) {
        ForestOptions par_opts = opts;
        par_opts.jobs = jobs;
        RandomForest parallel;
        parallel.fit(d, par_opts);
        std::ostringstream got;
        parallel.save(got);
        EXPECT_EQ(ref.str(), got.str()) << "jobs=" << jobs;

        const auto &a = serial.oobPredictions();
        const auto &b = parallel.oobPredictions();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].has_value(), b[i].has_value()) << i;
            if (a[i])
                EXPECT_EQ(*a[i], *b[i]) << i;
        }
    }
}

TEST(RandomForest, FewerTreesAreAPrefixOfMore)
{
    // Tree t's bootstrap rows and rng stream depend only on (seed, t),
    // so shrinking numTrees keeps the first trees exactly: the default
    // forest is the first trees of any larger one.
    auto d = noisyLinearData(600, 13);
    ForestOptions opts;
    opts.tree.mtry = 1;
    opts.seed = 99;
    opts.numTrees = 5;
    RandomForest few;
    few.fit(d, opts);
    opts.numTrees = 12;
    RandomForest many;
    many.fit(d, opts);

    ASSERT_EQ(few.treeCount(), 5u);
    ASSERT_EQ(many.treeCount(), 12u);
    for (std::size_t t = 0; t < few.treeCount(); ++t) {
        const auto &a = few.trees()[t];
        const auto &b = many.trees()[t];
        EXPECT_EQ(a.depth(), b.depth()) << "tree " << t;
        ASSERT_EQ(a.nodeCount(), b.nodeCount()) << "tree " << t;
        for (std::size_t i = 0; i < a.nodeCount(); ++i) {
            const auto &x = a.nodes()[i];
            const auto &y = b.nodes()[i];
            EXPECT_EQ(x.feature, y.feature) << "tree " << t << " node " << i;
            EXPECT_EQ(x.threshold, y.threshold)
                << "tree " << t << " node " << i;
            EXPECT_EQ(x.left, y.left) << "tree " << t << " node " << i;
            EXPECT_EQ(x.right, y.right) << "tree " << t << " node " << i;
            EXPECT_EQ(x.value, y.value) << "tree " << t << " node " << i;
        }
    }
}

TEST(RandomForest, OobMapeNaNWhenEveryRowSkipped)
{
    // All-zero targets: every OOB row fails the |y| > 1e-12 guard, so
    // there is nothing to score. 0.0 would read as perfect accuracy.
    Dataset d;
    for (int i = 0; i < 50; ++i)
        d.add(fv(static_cast<double>(i)), 0.0);
    RandomForest rf;
    ForestOptions opts;
    opts.numTrees = 8;
    rf.fit(d, opts);
    EXPECT_TRUE(std::isnan(rf.oobMape(d)));
}

TEST(RandomForest, TotalNodesCounted)
{
    auto d = noisyLinearData(200, 8);
    RandomForest rf;
    ForestOptions opts;
    opts.numTrees = 5;
    rf.fit(d, opts);
    EXPECT_GE(rf.totalNodes(), 5u);
}

TEST(RandomForest, EmptyDatasetDies)
{
    Dataset d;
    RandomForest rf;
    EXPECT_DEATH(rf.fit(d, {}), "empty");
}

TEST(RandomForest, PredictBeforeFitDies)
{
    RandomForest rf;
    EXPECT_DEATH(rf.predict(fv(0)), "unfitted");
}

TEST(RandomForest, SampleFractionRespected)
{
    auto d = noisyLinearData(400, 9);
    ForestOptions opts;
    opts.numTrees = 10;
    opts.sampleFraction = 0.25;
    RandomForest rf;
    rf.fit(d, opts);
    // Still functional with small bootstrap samples.
    EXPECT_TRUE(std::isfinite(rf.predict(fv(5, 5))));
}

} // namespace
} // namespace gpupm::ml
