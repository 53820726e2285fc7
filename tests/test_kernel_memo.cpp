/**
 * @file
 * ml::KernelMemo contract tests: bit-identity against the wrapped
 * predictor on the miss and table paths, the per-kernel LRU (hits,
 * passthrough modes, eviction), scoring in the owner's hardware model,
 * and the governors' ownership of their memo. The hot-swap contract
 * lives in test_online_swap.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "kernel/perf_model.hpp"
#include "ml/features.hpp"
#include "ml/flat_forest.hpp"
#include "ml/kernel_memo.hpp"
#include "ml/trainer.hpp"
#include "policy/ppk.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {
namespace {

std::shared_ptr<const RandomForestPredictor>
tinyRf()
{
    TrainerOptions opts;
    opts.corpusSize = 8;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    return trainRandomForestPredictor(opts);
}

/** One kernel's query + the dense config list the governor scores. */
struct QueryFixture
{
    PredictionQuery query;
    std::vector<hw::HwConfig> configs;
};

QueryFixture
sampleQuery(std::uint64_t seed, std::size_t num_configs = 32)
{
    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const auto k = workload::trainingCorpus(1, seed)[0];
    const hw::ConfigSpace space;
    QueryFixture out;
    const auto c0 = hw::ConfigSpace::maxPerformance();
    const auto est = model.estimate(k, c0);
    out.query.counters = model.counters(k, c0, est);
    out.query.instructions = k.instructions();
    for (std::size_t i = 0; i < num_configs; ++i)
        out.configs.push_back(space.at((i * 29) % space.size()));
    return out;
}

TEST(KernelMemo, BitIdenticalToWrappedPredictor)
{
    auto rf = tinyRf();
    const auto fx = sampleQuery(0xaaa);
    std::vector<Prediction> want(fx.configs.size());
    rf->predictBatch(fx.query, fx.configs, want);

    KernelMemo memo(rf, hw::paperApu());
    for (int pass = 0; pass < 2; ++pass) { // miss pass, then table pass
        std::vector<Prediction> got(fx.configs.size());
        memo.predictBatch(fx.query, fx.configs, got);
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].time, want[i].time)
                << "pass " << pass << " config " << i;
            EXPECT_EQ(got[i].gpuPower, want[i].gpuPower)
                << "pass " << pass << " config " << i;
        }
    }
    EXPECT_EQ(memo.cachedKernels(), 1u);

    // Scalar predict() serves from the same table, and agrees with the
    // predictor's own single-row walk.
    const auto one = memo.predict(fx.query, fx.configs[3]);
    EXPECT_EQ(one.time, want[3].time);
    EXPECT_EQ(one.gpuPower, want[3].gpuPower);
    const auto direct = rf->predict(fx.query, fx.configs[3]);
    EXPECT_EQ(direct.time, want[3].time);
    EXPECT_EQ(direct.gpuPower, want[3].gpuPower);
}

TEST(KernelMemo, SecondPassIsServedFromTheCache)
{
    auto rf = tinyRf();
    KernelMemo memo(rf, hw::paperApu());
    const auto fx = sampleQuery(0xbbb);
    std::vector<Prediction> out(fx.configs.size());

    memo.predictBatch(fx.query, fx.configs, out);
    EXPECT_EQ(memo.stats().missQueries, fx.configs.size());
    EXPECT_EQ(memo.stats().hitQueries, 0u);

    const std::uint64_t rows = forestRowsWalked();
    memo.predictBatch(fx.query, fx.configs, out);
    EXPECT_EQ(memo.stats().missQueries, fx.configs.size());
    EXPECT_EQ(memo.stats().hitQueries, fx.configs.size());
    EXPECT_EQ(forestRowsWalked(), rows) << "a table hit walked the forest";
}

TEST(KernelMemo, CapZeroIsAPassthrough)
{
    auto rf = tinyRf();
    KernelMemo memo(rf, hw::paperApu(), /*cap=*/0);

    const auto fx = sampleQuery(0xddd);
    std::vector<Prediction> want(fx.configs.size());
    rf->predictBatch(fx.query, fx.configs, want);
    for (int pass = 0; pass < 2; ++pass) {
        const std::uint64_t rows = forestRowsWalked();
        std::vector<Prediction> got(fx.configs.size());
        memo.predictBatch(fx.query, fx.configs, got);
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].time, want[i].time) << i;
            EXPECT_EQ(got[i].gpuPower, want[i].gpuPower) << i;
        }
        // Both forests walk every config, every time.
        EXPECT_EQ(forestRowsWalked() - rows, 2 * fx.configs.size());
    }
    EXPECT_EQ(memo.cachedKernels(), 0u);
    EXPECT_EQ(memo.stats().hitQueries, 0u);
    EXPECT_EQ(memo.stats().missQueries, 0u);
}

TEST(KernelMemo, NonRandomForestBaseIsAPassthrough)
{
    // Oracle-family predictors consult ground truth, so counters are
    // not a safe cache key: wrap() must hand them back untouched, and
    // must not stack a memo on a memo.
    auto gt = std::make_shared<const GroundTruthPredictor>(
        hw::ApuParams::defaults());
    EXPECT_EQ(KernelMemo::wrap(gt, hw::paperApu()), gt);

    auto wrapped = KernelMemo::wrap(tinyRf(), hw::paperApu());
    ASSERT_NE(dynamic_cast<const KernelMemo *>(wrapped.get()), nullptr);
    EXPECT_EQ(KernelMemo::wrap(wrapped, hw::paperApu()), wrapped);
    EXPECT_EQ(wrapped->name(), "RF");
}

TEST(KernelMemo, EvictsLeastRecentlyUsedKernelAtCap)
{
    auto rf = tinyRf();
    KernelMemo memo(rf, hw::paperApu(), /*cap=*/2);

    const auto a = sampleQuery(1), b = sampleQuery(2),
               c = sampleQuery(3);
    std::vector<Prediction> out(a.configs.size());
    memo.predictBatch(a.query, a.configs, out);
    memo.predictBatch(b.query, b.configs, out);
    EXPECT_EQ(memo.cachedKernels(), 2u);
    EXPECT_EQ(memo.stats().evictions, 0u);

    memo.predictBatch(c.query, c.configs, out); // evicts a (LRU)
    EXPECT_EQ(memo.cachedKernels(), 2u);
    EXPECT_EQ(memo.stats().evictions, 1u);

    // b and c stay warm; re-querying them evicts nothing further.
    memo.predictBatch(b.query, b.configs, out);
    memo.predictBatch(c.query, c.configs, out);
    EXPECT_EQ(memo.stats().evictions, 1u);

    // a was evicted: touching it again displaces the colder of b/c, and
    // the recycled entry serves a's own values, not the victim's.
    memo.predictBatch(a.query, a.configs, out);
    EXPECT_EQ(memo.stats().evictions, 2u);
    std::vector<Prediction> want(a.configs.size());
    rf->predictBatch(a.query, a.configs, want);
    memo.predictBatch(a.query, a.configs, out);
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(out[i].time, want[i].time) << i;
        EXPECT_EQ(out[i].gpuPower, want[i].gpuPower) << i;
    }
}

TEST(KernelMemo, ClearCacheDropsEveryEntry)
{
    auto rf = tinyRf();
    KernelMemo memo(rf, hw::paperApu());
    const auto fx = sampleQuery(0xeee);
    std::vector<Prediction> out(fx.configs.size());
    memo.predictBatch(fx.query, fx.configs, out);
    EXPECT_EQ(memo.cachedKernels(), 1u);
    memo.clear();
    EXPECT_EQ(memo.cachedKernels(), 0u);
}

TEST(KernelMemo, ScoresInTheOwnersModelUnits)
{
    // A variant model's candidates are scored on rows built from its
    // own descriptor table, not the paper model's config features.
    auto rf = tinyRf();
    const auto eco = hw::HardwareCatalog::instance().get("eco-apu");
    const auto fx = sampleQuery(0xfff);
    std::vector<Prediction> got(fx.configs.size());
    KernelMemo memo(rf, eco);
    memo.predictBatch(fx.query, fx.configs, got);

    const auto kf = makeKernelFeatures(fx.query.counters);
    std::vector<FeatureVector> rows;
    for (const auto &c : fx.configs)
        rows.push_back(combineFeatures(kf, eco->descriptor(c)));
    std::vector<double> time_log(rows.size()), power(rows.size());
    rf->predictRows(rows, time_log, power);
    const double proxy = instructionProxy(fx.query.counters);

    std::size_t differs = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(got[i].time, std::exp(time_log[i]) * proxy) << i;
        EXPECT_EQ(got[i].gpuPower, power[i]) << i;
        if (eco->descriptor(fx.configs[i]) != configFeatures(fx.configs[i]))
            ++differs;
    }
    EXPECT_GT(differs, 0u) << "eco-apu shares the paper descriptors";
}

TEST(KernelMemo, PpkGovernorOwnsItsMemo)
{
    // A PPK governor on a bare Random Forest scores kernel A, then B,
    // then A again: the third decision is served from A's table and
    // walks no forest rows.
    auto rf = tinyRf();
    policy::PpkGovernor gov(rf, {}, hw::paperApu());
    gov.beginRun("app", 0.0);

    const kernel::GroundTruthModel truth{hw::ApuParams::defaults()};
    const auto ks = workload::trainingCorpus(2, 0x5eed);
    const auto c0 = hw::ConfigSpace::maxPerformance();
    const auto observe = [&](const kernel::KernelParams &k) {
        sim::Observation obs;
        obs.measurement.time = 1e-3;
        obs.measurement.counters =
            truth.counters(k, c0, truth.estimate(k, c0));
        obs.measurement.instructions = k.instructions();
        gov.observe(obs);
    };

    gov.decide(0); // first kernel: fail-safe, no scan
    std::uint64_t walked[3] = {};
    const kernel::KernelParams *order[3] = {&ks[0], &ks[1], &ks[0]};
    for (std::size_t i = 0; i < 3; ++i) {
        observe(*order[i]);
        const std::uint64_t rows = forestRowsWalked();
        gov.decide(i + 1);
        walked[i] = forestRowsWalked() - rows;
        EXPECT_EQ(gov.lastEvaluationCount(), hw::ConfigSpace().size());
    }
    EXPECT_EQ(walked[0], 2 * hw::ConfigSpace().size());
    EXPECT_EQ(walked[1], 2 * hw::ConfigSpace().size());
    EXPECT_EQ(walked[2], 0u);
}

} // namespace
} // namespace gpupm::ml
