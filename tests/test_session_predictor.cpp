/**
 * @file
 * serve::SessionPredictor contract tests: bit-identity against the
 * wrapped predictor on the miss and memo paths, the per-session kernel
 * cache (hits, passthrough modes, LRU eviction). The hot-swap contract
 * lives in test_online_swap.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kernel/perf_model.hpp"
#include "ml/trainer.hpp"
#include "serve/session_predictor.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/training.hpp"

namespace gpupm::serve {
namespace {

std::shared_ptr<const ml::RandomForestPredictor>
tinyRf()
{
    ml::TrainerOptions opts;
    opts.corpusSize = 8;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    return ml::trainRandomForestPredictor(opts);
}

/** One kernel's query + the dense config list the governor scores. */
struct QueryFixture
{
    ml::PredictionQuery query;
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

TEST(SessionPredictor, BitIdenticalToWrappedPredictor)
{
    auto rf = tinyRf();
    const auto fx = sampleQuery(0xaaa);
    std::vector<ml::Prediction> want(fx.configs.size());
    rf->predictBatch(fx.query, fx.configs, want);

    SessionPredictor sp(rf, /*handle=*/nullptr, hw::paperApu());
    ASSERT_TRUE(sp.accelerated());
    for (int pass = 0; pass < 2; ++pass) { // miss pass, then memo pass
        std::vector<ml::Prediction> got(fx.configs.size());
        sp.predictBatch(fx.query, fx.configs, got);
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].time, want[i].time)
                << "pass " << pass << " config " << i;
            EXPECT_EQ(got[i].gpuPower, want[i].gpuPower)
                << "pass " << pass << " config " << i;
        }
    }
    EXPECT_EQ(sp.cachedKernels(), 1u);

    // Scalar predict() serves from the same memo.
    const auto one = sp.predict(fx.query, fx.configs[3]);
    EXPECT_EQ(one.time, want[3].time);
    EXPECT_EQ(one.gpuPower, want[3].gpuPower);
}

TEST(SessionPredictor, SecondPassIsServedFromTheCache)
{
    auto rf = tinyRf();
    telemetry::Registry reg;
    SessionPredictor sp(rf, nullptr, hw::paperApu(), {}, &reg);
    const auto fx = sampleQuery(0xbbb);
    std::vector<ml::Prediction> out(fx.configs.size());

    sp.predictBatch(fx.query, fx.configs, out);
    const auto after_first = reg.snapshot();
    EXPECT_EQ(after_first.counters.at("serve.cache_miss_queries"),
              fx.configs.size());
    EXPECT_EQ(after_first.counters.at("serve.cache_hit_queries"), 0u);

    sp.predictBatch(fx.query, fx.configs, out);
    const auto after_second = reg.snapshot();
    EXPECT_EQ(after_second.counters.at("serve.cache_miss_queries"),
              fx.configs.size());
    EXPECT_EQ(after_second.counters.at("serve.cache_hit_queries"),
              fx.configs.size());
}

TEST(SessionPredictor, CapZeroIsAPassthrough)
{
    auto rf = tinyRf();
    SessionPredictorOptions opts;
    opts.kernelCacheCap = 0;
    SessionPredictor sp(rf, nullptr, hw::paperApu(), opts);
    EXPECT_FALSE(sp.accelerated());

    const auto fx = sampleQuery(0xddd);
    std::vector<ml::Prediction> want(fx.configs.size());
    rf->predictBatch(fx.query, fx.configs, want);
    std::vector<ml::Prediction> got(fx.configs.size());
    sp.predictBatch(fx.query, fx.configs, got);
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].time, want[i].time) << i;
        EXPECT_EQ(got[i].gpuPower, want[i].gpuPower) << i;
    }
    EXPECT_EQ(sp.cachedKernels(), 0u);
}

TEST(SessionPredictor, NonRandomForestBaseIsAPassthrough)
{
    // Oracle-family predictors consult ground truth, so counters are
    // not a safe cache key; the decorator must not engage.
    auto gt = std::make_shared<const ml::GroundTruthPredictor>(hw::ApuParams::defaults());
    SessionPredictor sp(gt, nullptr, hw::paperApu());
    EXPECT_FALSE(sp.accelerated());
    EXPECT_EQ(sp.name(), gt->name());
}

TEST(SessionPredictor, EvictsLeastRecentlyUsedKernelAtCap)
{
    auto rf = tinyRf();
    telemetry::Registry reg;
    SessionPredictorOptions opts;
    opts.kernelCacheCap = 2;
    SessionPredictor sp(rf, nullptr, hw::paperApu(), opts, &reg);

    const auto a = sampleQuery(1), b = sampleQuery(2),
               c = sampleQuery(3);
    std::vector<ml::Prediction> out(a.configs.size());
    sp.predictBatch(a.query, a.configs, out);
    sp.predictBatch(b.query, b.configs, out);
    EXPECT_EQ(sp.cachedKernels(), 2u);
    EXPECT_EQ(sp.cacheEvictions(), 0u);

    sp.predictBatch(c.query, c.configs, out); // evicts a (LRU)
    EXPECT_EQ(sp.cachedKernels(), 2u);
    EXPECT_EQ(sp.cacheEvictions(), 1u);
    EXPECT_EQ(reg.snapshot().counters.at("serve.kernel_evictions"), 1u);

    // b and c stay warm; re-querying them evicts nothing further.
    sp.predictBatch(b.query, b.configs, out);
    sp.predictBatch(c.query, c.configs, out);
    EXPECT_EQ(sp.cacheEvictions(), 1u);

    // a was evicted: touching it again displaces the colder of b/c.
    sp.predictBatch(a.query, a.configs, out);
    EXPECT_EQ(sp.cacheEvictions(), 2u);
}

TEST(SessionPredictor, ClearCacheDropsEveryEntry)
{
    auto rf = tinyRf();
    SessionPredictor sp(rf, nullptr, hw::paperApu());
    const auto fx = sampleQuery(0xeee);
    std::vector<ml::Prediction> out(fx.configs.size());
    sp.predictBatch(fx.query, fx.configs, out);
    EXPECT_EQ(sp.cachedKernels(), 1u);
    sp.clearCache();
    EXPECT_EQ(sp.cachedKernels(), 0u);
}

} // namespace
} // namespace gpupm::serve
