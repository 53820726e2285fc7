/**
 * @file
 * Hot-swap fuzz suite for the RCU forest-publication path (run it under
 * TSan via tools/run_sanitizers.sh). N reader threads hammer
 * predictions - both directly through a ForestHandle and through
 * memoizing SessionPredictors - while a writer publishes new
 * generations as fast as it can. The pinned invariant: every evaluated
 * batch, and every SessionPredictor::predictBatch call, is
 * bit-identical to *exactly one* generation's forests; a concurrent
 * publish may decide which generation serves a call but can never mix
 * two inside one, corrupt a result, or make a reader wait for a refit.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "hw/config.hpp"
#include "hw/model.hpp"
#include "kernel/counters.hpp"
#include "ml/trainer.hpp"
#include "online/forest_handle.hpp"
#include "online/learner.hpp"
#include "serve/session_predictor.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/decision.hpp"

namespace gpupm::online {
namespace {

constexpr std::size_t kGenerations = 4;
constexpr std::size_t kProbeRows = 8;
/** Configs the SessionPredictor tests score for their one kernel. */
constexpr std::size_t kConfigs = 96;

/** Distinct tiny predictor per generation (seed- and target-shifted). */
std::shared_ptr<const ml::RandomForestPredictor>
makePredictor(std::size_t g)
{
    ml::Dataset time_data, power_data;
    Pcg32 rng(0xf0e57ULL + g, 0x5eedULL | 1);
    for (std::size_t i = 0; i < 256; ++i) {
        ml::FeatureVector f{};
        for (auto &v : f)
            v = rng.uniform(0.0, 1.0);
        const double shift = 0.5 * static_cast<double>(g);
        time_data.add(f, f[0] + 2.0 * f[3] + shift);
        power_data.add(f, 20.0 + 10.0 * f[1] + 5.0 * shift);
    }
    ml::ForestOptions fopts;
    fopts.numTrees = 4;
    fopts.seed = 0xf02e57ULL ^ g;
    ml::RandomForest time_forest, power_forest;
    time_forest.fit(time_data, fopts);
    power_forest.fit(power_data, fopts);
    return std::make_shared<ml::RandomForestPredictor>(
        std::move(time_forest), std::move(power_forest));
}

struct Expected
{
    std::vector<double> timeLog;
    std::vector<double> gpuPower;

    bool
    operator==(const Expected &o) const
    {
        return timeLog == o.timeLog && gpuPower == o.gpuPower;
    }
};

struct Fixture
{
    std::vector<std::shared_ptr<const ml::RandomForestPredictor>> gens;
    std::vector<ml::FeatureVector> probe;
    std::vector<Expected> expected; ///< Per generation, on the probe.
    /** One kernel's query and the configs it is scored against. */
    ml::PredictionQuery query;
    std::vector<hw::HwConfig> configs;
    /** Per generation: RandomForestPredictor::predictBatch on configs. */
    std::vector<std::vector<ml::Prediction>> predicted;

    Fixture()
    {
        Pcg32 rng(0x9e0be5ULL, 0x2f1ULL | 1);
        probe.resize(kProbeRows);
        for (auto &f : probe)
            for (auto &v : f)
                v = rng.uniform(0.0, 1.0);
        for (std::size_t g = 0; g < kGenerations; ++g) {
            gens.push_back(makePredictor(g));
            Expected e;
            e.timeLog.resize(kProbeRows);
            e.gpuPower.resize(kProbeRows);
            gens[g]->predictRows(probe, e.timeLog, e.gpuPower);
            expected.push_back(std::move(e));
        }
        // "Exactly one generation" is only meaningful when the
        // generations are pairwise distinguishable on the probe batch.
        for (std::size_t a = 0; a < kGenerations; ++a)
            for (std::size_t b = a + 1; b < kGenerations; ++b)
                GPUPM_ASSERT(!(expected[a] == expected[b]),
                             "probe batch cannot tell generations ",
                             a, " and ", b, " apart");

        std::array<double, kernel::numCounters> cs{};
        for (auto &c : cs)
            c = rng.uniform(1.0, 100.0);
        cs[0] = 4096.0; // plausible global work size keeps the proxy sane
        query.counters = kernel::KernelCounters::fromArray(cs);
        query.instructions = 1.0e6;
        const hw::ConfigSpace space;
        for (std::size_t i = 0; i < kConfigs; ++i)
            configs.push_back(space.at((i * 29) % space.size()));
        for (const auto &g : gens) {
            std::vector<ml::Prediction> out(kConfigs);
            g->predictBatch(query, configs, out);
            predicted.push_back(std::move(out));
        }
        // Stronger for the per-call checks: every single config tells
        // every two generations apart, so an output that mixes two
        // generations matches neither.
        for (std::size_t i = 0; i < kConfigs; ++i)
            for (std::size_t a = 0; a < kGenerations; ++a)
                for (std::size_t b = a + 1; b < kGenerations; ++b)
                    GPUPM_ASSERT(predicted[a][i].time !=
                                         predicted[b][i].time ||
                                     predicted[a][i].gpuPower !=
                                         predicted[b][i].gpuPower,
                                 "config ", i,
                                 " cannot tell generations ", a, " and ",
                                 b, " apart");
    }

    /**
     * Generations whose predictBatch output equals @p got on the
     * configs [first, first + got.size()), bit for bit.
     */
    std::size_t
    matchingGenerations(std::size_t first,
                        const std::vector<ml::Prediction> &got) const
    {
        std::size_t matched = 0;
        for (const auto &want : predicted) {
            bool all = true;
            for (std::size_t j = 0; j < got.size() && all; ++j)
                all = got[j].time == want[first + j].time &&
                      got[j].gpuPower == want[first + j].gpuPower;
            matched += all ? 1 : 0;
        }
        return matched;
    }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

TEST(ForestHandle, PublishIsOrderedAndAcquireNeverNull)
{
    auto &fx = fixture();
    ForestHandle h(fx.gens[0]);
    EXPECT_EQ(h.ordinal(), 0u);
    for (std::size_t g = 1; g < kGenerations; ++g)
        EXPECT_EQ(h.publish(fx.gens[g]), g);
    const auto gen = h.acquire();
    ASSERT_NE(gen, nullptr);
    EXPECT_EQ(gen->ordinal, kGenerations - 1);
    EXPECT_EQ(gen->predictor.get(), fx.gens.back().get());
}

/**
 * Readers walk whole batches against acquired snapshots while the
 * writer republishes the generation cycle; every batch must match the
 * generation its ordinal names, bit for bit.
 */
TEST(OnlineSwapFuzz, HandleReadersSeeExactlyOneGenerationPerBatch)
{
    auto &fx = fixture();
    constexpr std::size_t kReaders = 4;
    constexpr std::size_t kIterations = 400;
    constexpr std::size_t kPublishes = 200;

    ForestHandle handle(fx.gens[0]);
    std::atomic<bool> start{false};
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> batches{0};

    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kReaders; ++t) {
        readers.emplace_back([&] {
            while (!start.load(std::memory_order_acquire)) {
            }
            std::vector<double> tl(kProbeRows), gp(kProbeRows);
            for (std::size_t i = 0; i < kIterations; ++i) {
                const auto gen = handle.acquire();
                gen->predictor->predictRows(fx.probe, tl, gp);
                // The ordinal names the publish; publishes cycle the
                // fixture generations.
                const Expected &want =
                    fx.expected[gen->ordinal % kGenerations];
                std::size_t matched = 0;
                for (std::size_t g = 0; g < kGenerations; ++g) {
                    if (fx.expected[g].timeLog == tl &&
                        fx.expected[g].gpuPower == gp)
                        ++matched;
                }
                if (matched != 1 || want.timeLog != tl ||
                    want.gpuPower != gp)
                    mismatches.fetch_add(1);
                batches.fetch_add(1);
            }
        });
    }

    std::thread writer([&] {
        while (!start.load(std::memory_order_acquire)) {
        }
        for (std::size_t p = 1; p <= kPublishes; ++p)
            handle.publish(fx.gens[p % kGenerations]);
    });

    start.store(true, std::memory_order_release);
    writer.join();
    for (auto &r : readers)
        r.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(batches.load(), kReaders * kIterations);
    EXPECT_EQ(handle.ordinal(), kPublishes);
}

/**
 * Same invariant through memoizing session predictors: each reader owns
 * a SessionPredictor on the shared handle and scores sliding windows of
 * one kernel's configs, so most calls serve some configs from the memo
 * and walk the rest, while the writer republishes until every reader
 * is done. The whole output of every call must equal exactly one
 * generation's RandomForestPredictor::predictBatch output - memo hits
 * and walked rows never straddle a swap.
 */
TEST(OnlineSwapFuzz, SessionPredictorCallsServeExactlyOneGeneration)
{
    auto &fx = fixture();
    constexpr std::size_t kReaders = 4;
    constexpr std::size_t kIterations = 4000;
    constexpr std::size_t kWindow = 48;

    ForestHandle handle(fx.gens[0]);
    std::atomic<bool> start{false};
    std::atomic<std::size_t> finished{0};
    std::atomic<std::size_t> mismatches{0};

    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
            serve::SessionPredictor sp(fx.gens[0], &handle,
                                       hw::paperApu());
            std::vector<ml::Prediction> out(kWindow);
            while (!start.load(std::memory_order_acquire)) {
            }
            for (std::size_t i = 0; i < kIterations; ++i) {
                const std::size_t first =
                    (11 * i + 13 * t) % (kConfigs - kWindow + 1);
                sp.predictBatch(
                    fx.query,
                    std::span(fx.configs).subspan(first, kWindow), out);
                if (fx.matchingGenerations(first, out) != 1)
                    mismatches.fetch_add(1);
            }
            finished.fetch_add(1);
        });
    }

    std::size_t publishes = 0;
    std::thread writer([&] {
        while (!start.load(std::memory_order_acquire)) {
        }
        while (finished.load() < kReaders) {
            ++publishes;
            handle.publish(fx.gens[publishes % kGenerations]);
        }
    });

    start.store(true, std::memory_order_release);
    writer.join();
    for (auto &r : readers)
        r.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(handle.ordinal(), publishes);
}

TEST(OnlineSwap, SessionPredictorServesTheCurrentGeneration)
{
    // A call after a publish serves the new generation throughout:
    // configs it memoized under the old one are walked again, not
    // replayed beside freshly walked ones.
    auto &fx = fixture();
    ForestHandle handle(fx.gens[0]);
    serve::SessionPredictor sp(fx.gens[0], &handle, hw::paperApu());
    std::vector<ml::Prediction> out(48);
    sp.predictBatch(fx.query, std::span(fx.configs).first(48), out);
    EXPECT_EQ(fx.matchingGenerations(0, out), 1u);
    EXPECT_EQ(out[0].time, fx.predicted[0][0].time);

    handle.publish(fx.gens[1]);
    sp.predictBatch(fx.query, std::span(fx.configs).subspan(24, 48), out);
    EXPECT_EQ(fx.matchingGenerations(24, out), 1u);
    EXPECT_EQ(out[0].time, fx.predicted[1][24].time);
    EXPECT_EQ(out[47].gpuPower, fx.predicted[1][71].gpuPower);
}

TEST(OnlineSwap, CacheDisabledSessionPredictorFollowsTheHandle)
{
    // kernelCacheCap 0 turns the decorator into a passthrough; under
    // hot-swap it must still pass through to the current generation,
    // not to the baseline forests it was built with.
    auto &fx = fixture();
    ForestHandle handle(fx.gens[0]);
    serve::SessionPredictorOptions opts;
    opts.kernelCacheCap = 0;
    serve::SessionPredictor sp(fx.gens[0], &handle, hw::paperApu(), opts);
    ASSERT_FALSE(sp.accelerated());
    handle.publish(fx.gens[2]);
    std::vector<ml::Prediction> out(kConfigs);
    sp.predictBatch(fx.query, fx.configs, out);
    EXPECT_EQ(fx.matchingGenerations(0, out), 1u);
    EXPECT_EQ(out[5].time, fx.predicted[2][5].time);
    EXPECT_EQ(out[5].gpuPower, fx.predicted[2][5].gpuPower);
}

/** A scored, drifting decision record the learner can train on. */
trace::DecisionRecord
driftingRecord(std::size_t i)
{
    trace::DecisionRecord r;
    r.observed = true;
    r.predictedTime = 1.0e-3;
    r.measuredTime = 2.0e-3 + 1.0e-5 * static_cast<double>(i % 7);
    r.measuredGpuPower = 25.0 + static_cast<double>(i % 5);
    r.timeErrorPct = 60.0;
    r.kernelSignature = 0xabcdULL;
    r.configIndex =
        hw::denseConfigIndex(hw::ConfigSpace::maxPerformance());
    std::array<double, kernel::numCounters> cs{};
    for (std::size_t c = 0; c < cs.size(); ++c)
        cs[c] = 1.0 + static_cast<double>((i + c) % 11);
    cs[0] = 4096.0; // plausible global work size keeps the proxy sane
    r.counters = kernel::KernelCounters::fromArray(cs);
    r.measuredInstructions = 1.0e6;
    r.nonKernelTime = 1.0e-4;
    r.targetThroughput = 1.0e9;
    return r;
}

OnlineOptions
eagerLearner()
{
    OnlineOptions o;
    o.drift.window = 4;
    o.drift.minSamples = 2;
    o.drift.sustain = 2;
    // The constant-error stream disarms after its first trigger (the
    // hysteresis contract), so that one trigger must be allowed to
    // refit: it arrives with 3 accumulated rows.
    o.minRows = 2;
    o.forest.numTrees = 2;
    o.synchronous = true; // swaps land at known record boundaries
    return o;
}

TEST(OnlineLearner, SustainedDriftRetrainsAndPublishes)
{
    auto &fx = fixture();
    ForestHandle handle(fx.gens[0]);
    trace::DecisionLog inner;
    OnlineLearner learner(handle, eagerLearner(), &inner);

    for (std::size_t i = 0; i < 24; ++i)
        learner.record(driftingRecord(i));
    learner.drain();

    const auto st = learner.stats();
    EXPECT_EQ(st.observed, 24u);
    EXPECT_EQ(st.rows, 24u);
    EXPECT_GE(st.triggers, 1u);
    EXPECT_GE(st.retrains, 1u);
    EXPECT_EQ(st.retrains, st.swaps);
    EXPECT_EQ(handle.ordinal(), st.swaps);
    EXPECT_NE(handle.acquire()->predictor.get(), fx.gens[0].get());

    // Observer contract: the inner sink saw every record, unchanged.
    EXPECT_EQ(inner.size(), 24u);
}

TEST(OnlineLearner, TriggersBelowMinRowsAreSuppressed)
{
    auto &fx = fixture();
    ForestHandle handle(fx.gens[0]);
    auto opts = eagerLearner();
    opts.minRows = 100000; // never enough evidence to refit
    opts.maxRows = 200000;
    OnlineLearner learner(handle, opts);

    for (std::size_t i = 0; i < 24; ++i)
        learner.record(driftingRecord(i));
    learner.drain();

    const auto st = learner.stats();
    EXPECT_GE(st.triggers, 1u);
    EXPECT_EQ(st.retrains, 0u);
    EXPECT_EQ(st.swaps, 0u);
    EXPECT_EQ(st.suppressed, st.triggers);
    EXPECT_EQ(handle.ordinal(), 0u);
}

TEST(OnlineLearner, BackgroundRetrainPublishesAfterDrain)
{
    // The deployment path: refits run on the learner's own lazily
    // created pool, not the caller's thread; drain() joins them. The
    // bounded row buffer (maxRows) evicts oldest while total-row
    // accounting keeps counting, and every online.* telemetry counter
    // mirrors the stats snapshot.
    auto &fx = fixture();
    ForestHandle handle(fx.gens[0]);
    telemetry::Registry registry;
    auto opts = eagerLearner();
    opts.synchronous = false;
    opts.maxRows = 8; // force oldest-row eviction under the 24 records
    OnlineLearner learner(handle, opts, nullptr, &registry);

    for (std::size_t i = 0; i < 24; ++i)
        learner.record(driftingRecord(i));
    learner.drain();

    const auto st = learner.stats();
    EXPECT_EQ(st.rows, 24u); // total accumulated, not buffer occupancy
    EXPECT_GE(st.triggers, 1u);
    EXPECT_GE(st.retrains, 1u);
    EXPECT_EQ(st.retrains, st.swaps);
    EXPECT_EQ(handle.ordinal(), st.swaps);
    EXPECT_NE(handle.acquire()->predictor.get(), fx.gens[0].get());

    EXPECT_EQ(registry.counter("online.drift_triggers").value(),
              st.triggers);
    EXPECT_EQ(registry.counter("online.retrains").value(), st.retrains);
    EXPECT_EQ(registry.counter("online.swaps").value(), st.swaps);
    EXPECT_EQ(registry.counter("online.suppressed").value(),
              st.suppressed);
}

TEST(OnlineLearner, RefitsAreDeterministic)
{
    auto &fx = fixture();
    std::vector<std::shared_ptr<const ForestGeneration>> published;
    std::vector<Expected> outputs;
    for (int rep = 0; rep < 2; ++rep) {
        ForestHandle handle(fx.gens[0]);
        OnlineLearner learner(handle, eagerLearner());
        for (std::size_t i = 0; i < 24; ++i)
            learner.record(driftingRecord(i));
        learner.drain();
        ASSERT_GE(handle.ordinal(), 1u);

        Expected e;
        e.timeLog.resize(kProbeRows);
        e.gpuPower.resize(kProbeRows);
        handle.acquire()->predictor->predictRows(fx.probe, e.timeLog,
                                                 e.gpuPower);
        outputs.push_back(std::move(e));
        published.push_back(handle.acquire());
    }
    // Same record stream, same seed derivation: bit-identical refits
    // from genuinely fresh predictor objects (instanceId, not the
    // address - the allocator recycles addresses across refits, which
    // is the very ABA hazard generation caches must survive).
    EXPECT_TRUE(outputs[0] == outputs[1]);
    EXPECT_NE(published[0]->predictor->instanceId(),
              published[1]->predictor->instanceId());
    EXPECT_NE(published[0]->predictor->instanceId(),
              fx.gens[0]->instanceId());
}

} // namespace
} // namespace gpupm::online
