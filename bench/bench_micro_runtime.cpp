/**
 * @file
 * google-benchmark microbenchmarks of the runtime components that the
 * OverheadModel constants stand for: Random Forest inference, one
 * greedy hill-climb decision, one PPK exhaustive scan, the pattern
 * extractor's hot path, and the Theoretically Optimal planner.
 *
 * These measure this host, not the paper's A10-7850K; the point is the
 * relative cost structure (hill climb << exhaustive scan) that makes
 * MPC deployable between kernel launches.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "bench_simd_main.hpp"
#include "harness.hpp"
#include "kernel/perf_model.hpp"
#include "ml/features.hpp"
#include "mpc/hill_climb.hpp"
#include "mpc/pattern_extractor.hpp"
#include "policy/knapsack.hpp"
#include "workload/training.hpp"

using namespace gpupm;

namespace {

struct Fixture
{
    Fixture()
    {
        ml::TrainerOptions opts;
        opts.corpusSize = 24;
        opts.configStride = 3;
        opts.forest.numTrees = 60;
        rf = ml::trainRandomForestPredictor(opts);
        kernel = workload::trainingCorpus(1, 0x71e)[0];
        const auto c = hw::ConfigSpace::failSafe();
        const auto est = model.estimate(kernel, c);
        query.counters = model.counters(kernel, c, est);
        query.instructions = kernel.instructions();
        query.groundTruth = &kernel;
        headroom = est.time * 1.2;
    }

    kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    hw::ConfigSpace space;
    ml::EnergyModel energy{hw::ApuParams::defaults()};
    std::unique_ptr<ml::RandomForestPredictor> rf;
    kernel::KernelParams kernel;
    ml::PredictionQuery query;
    Seconds headroom = 0.0;
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

void
BM_RandomForestInference(benchmark::State &state)
{
    auto &f = fixture();
    const auto c = hw::ConfigSpace::maxPerformance();
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.rf->predict(f.query, c));
    }
}
BENCHMARK(BM_RandomForestInference);

/**
 * The pre-FlatForest inference path, kept as the reference the flat
 * engine is measured against: per-query feature assembly plus two
 * pointer-chasing scalar forest walks.
 */
void
BM_ScalarForestReference(benchmark::State &state)
{
    auto &f = fixture();
    const auto c = hw::ConfigSpace::maxPerformance();
    const double proxy = ml::instructionProxy(f.query.counters);
    for (auto _ : state) {
        const auto feats = ml::makeFeatures(f.query.counters, c);
        ml::Prediction p;
        p.time = std::exp(f.rf->timeForest().predict(feats)) * proxy;
        p.gpuPower = f.rf->powerForest().predict(feats);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_ScalarForestReference);

/**
 * The flat engine itself: tree-major batched walks of both full
 * forests over the 336-config static space, features prebuilt. No
 * specialization, no memo - this is the raw per-config cost of a
 * (time, power) prediction pair, the number to compare against
 * BM_ScalarForestReference.
 */
void
BM_BatchedForestInference(benchmark::State &state)
{
    auto &f = fixture();
    const auto &cfgs = f.space.all();
    std::vector<ml::FeatureVector> feats;
    feats.reserve(cfgs.size());
    for (const auto &c : cfgs)
        feats.push_back(ml::makeFeatures(f.query.counters, c));
    std::vector<double> time_pred(cfgs.size()), power_pred(cfgs.size());
    for (auto _ : state) {
        f.rf->timeFlat().predictBatch(feats, time_pred);
        f.rf->powerFlat().predictBatch(feats, power_pred);
        benchmark::DoNotOptimize(time_pred.data());
        benchmark::DoNotOptimize(power_pred.data());
    }
    state.counters["configs"] = static_cast<double>(cfgs.size());
    // Rate counter + invert = seconds per (time, power) prediction pair.
    state.counters["s_per_predict"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(cfgs.size()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_BatchedForestInference);

/**
 * Predictor-level batch over the same 336 configs. Steady state for a
 * recurring kernel: every config is served from the per-kernel
 * prediction memo.
 */
void
BM_PredictorBatchSteadyState(benchmark::State &state)
{
    auto &f = fixture();
    const auto &cfgs = f.space.all();
    std::vector<ml::Prediction> preds(cfgs.size());
    for (auto _ : state) {
        f.rf->predictBatch(f.query, cfgs, preds);
        benchmark::DoNotOptimize(preds.data());
    }
    state.counters["configs"] = static_cast<double>(cfgs.size());
    state.counters["s_per_predict"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(cfgs.size()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PredictorBatchSteadyState);

void
BM_EnergyEstimate(benchmark::State &state)
{
    auto &f = fixture();
    const auto c = hw::ConfigSpace::maxPerformance();
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.energy.estimate(*f.rf, f.query, c));
    }
}
BENCHMARK(BM_EnergyEstimate);

void
BM_HillClimbDecision(benchmark::State &state)
{
    auto &f = fixture();
    mpc::HillClimbOptimizer climber(f.space, f.energy);
    std::size_t evals = 0;
    std::size_t unique = 0;
    for (auto _ : state) {
        auto res = climber.optimize(*f.rf, f.query, f.headroom,
                                    hw::ConfigSpace::failSafe());
        evals = res.evaluations;
        unique = res.uniqueEvaluations;
        benchmark::DoNotOptimize(res);
    }
    state.counters["evaluations"] = static_cast<double>(evals);
    state.counters["unique_evaluations"] = static_cast<double>(unique);
}
BENCHMARK(BM_HillClimbDecision);

/**
 * A decision for a never-seen kernel: the counters change every
 * iteration, so every evaluation walks both forests instead of hitting
 * the per-kernel prediction memo. This is the MPC governor's
 * first-launch cost; BM_HillClimbDecision is its recurring-launch
 * cost.
 */
void
BM_HillClimbDecisionColdKernel(benchmark::State &state)
{
    auto &f = fixture();
    mpc::HillClimbOptimizer climber(f.space, f.energy);
    auto q = f.query;
    for (auto _ : state) {
        // A new kernel identity per decision (any counter bit change
        // misses the kernel memo).
        q.counters.globalWorkSize += 1.0;
        auto res = climber.optimize(*f.rf, q, f.headroom,
                                    hw::ConfigSpace::failSafe());
        benchmark::DoNotOptimize(res);
    }
}
BENCHMARK(BM_HillClimbDecisionColdKernel);

void
BM_ExhaustiveScanDecision(benchmark::State &state)
{
    auto &f = fixture();
    const auto &cfgs = f.space.all();
    std::vector<ml::EnergyEstimate> ests(cfgs.size());
    for (auto _ : state) {
        f.energy.estimateBatch(*f.rf, f.query, cfgs, ests);
        double best = 1e300;
        for (const auto &e : ests) {
            if (e.time <= f.headroom && e.energy < best)
                best = e.energy;
        }
        benchmark::DoNotOptimize(best);
    }
    state.counters["evaluations"] = static_cast<double>(f.space.size());
}
BENCHMARK(BM_ExhaustiveScanDecision);

/**
 * A PPK scan of a never-seen kernel: new counters every iteration, so
 * all 336 configs miss the per-kernel memo and both forests walk the
 * whole scan (BM_ExhaustiveScanDecision times the memo hits of a
 * recurring kernel). The fixture's corpus-24/stride-3 model has
 * ~1.15k-node trees, about a tenth of the default `gpupm train`
 * model's, so this understates a served scan's walk.
 */
void
BM_ExhaustiveScanDecisionColdKernel(benchmark::State &state)
{
    auto &f = fixture();
    const auto &cfgs = f.space.all();
    std::vector<ml::EnergyEstimate> ests(cfgs.size());
    auto q = f.query;
    for (auto _ : state) {
        q.counters.globalWorkSize += 1.0;
        f.energy.estimateBatch(*f.rf, q, cfgs, ests);
        double best = 1e300;
        for (const auto &e : ests) {
            if (e.time <= f.headroom && e.energy < best)
                best = e.energy;
        }
        benchmark::DoNotOptimize(best);
    }
    state.counters["evaluations"] = static_cast<double>(f.space.size());
}
BENCHMARK(BM_ExhaustiveScanDecisionColdKernel);

/**
 * Synthetic regression dataset shaped like the trainer's: all features
 * populated, a nonlinear target, and heavy feature-value ties (config
 * features are drawn from small discrete sets), which is what makes
 * split-search tie handling and presorting matter.
 */
ml::Dataset
makeTrainingDataset(std::size_t n, std::uint64_t seed)
{
    ml::Dataset d;
    Pcg32 rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        ml::FeatureVector f{};
        double target = 1.0;
        for (int j = 0; j < ml::numFeatures; ++j) {
            // Half the features are "discrete" (few distinct levels).
            f[static_cast<std::size_t>(j)] =
                (j % 2) ? static_cast<double>(rng.nextBounded(7))
                        : rng.uniform(0.0, 10.0);
            target += (j % 3) ? f[static_cast<std::size_t>(j)]
                              : 0.5 * f[static_cast<std::size_t>(j)] *
                                    f[static_cast<std::size_t>(j)];
        }
        d.add(f, target + rng.gaussian(0.0, 0.5));
    }
    return d;
}

/**
 * Fit one forest on a trainer-shaped dataset: the split-search hot
 * loop in isolation (no corpus generation, no OOB reporting around
 * it). state.range(0) is the worker count.
 */
void
BM_TrainForest(benchmark::State &state)
{
    const auto data = makeTrainingDataset(4096, 0x7a41);
    ml::ForestOptions opts = ml::ForestOptions::regressionDefaults();
    opts.numTrees = 20;
    for (auto _ : state) {
        ml::RandomForest rf;
        rf.fit(data, opts);
        benchmark::DoNotOptimize(rf);
    }
    state.counters["trees"] = opts.numTrees;
    state.counters["rows"] = static_cast<double>(data.size());
}
BENCHMARK(BM_TrainForest)->Unit(benchmark::kMillisecond);

/**
 * The full offline pipeline every bench binary pays on startup:
 * corpus generation, dataset assembly, and both forest fits, at the
 * same corpus/stride the micro fixture uses.
 */
void
BM_TrainPredictorEndToEnd(benchmark::State &state)
{
    for (auto _ : state) {
        ml::TrainerOptions opts;
        opts.corpusSize = 24;
        opts.configStride = 3;
        opts.forest.numTrees = 60;
        auto rf = ml::trainRandomForestPredictor(opts);
        benchmark::DoNotOptimize(rf);
    }
}
BENCHMARK(BM_TrainPredictorEndToEnd)->Unit(benchmark::kMillisecond);

void
BM_SignatureAndLookup(benchmark::State &state)
{
    auto &f = fixture();
    mpc::PatternExtractor pe;
    pe.observe(f.query.counters, 1e-3, 20.0, 1e8, nullptr);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pe.observe(f.query.counters, 1e-3, 20.0, 1e8, nullptr));
    }
}
BENCHMARK(BM_SignatureAndLookup);

void
BM_GroundTruthEstimate(benchmark::State &state)
{
    auto &f = fixture();
    const auto c = hw::ConfigSpace::maxPerformance();
    for (auto _ : state) {
        benchmark::DoNotOptimize(f.model.estimate(f.kernel, c));
    }
}
BENCHMARK(BM_GroundTruthEstimate);

void
BM_OraclePlanSpmv(benchmark::State &state)
{
    auto app = workload::makeBenchmark("Spmv");
    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    auto base = sim.run(app, turbo);
    for (auto _ : state) {
        policy::TheoreticallyOptimalGovernor oracle(app, hw::paperApu());
        auto r = sim.run(app, oracle, base.throughput());
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_OraclePlanSpmv)->Unit(benchmark::kMillisecond);

void
BM_McpSteadyStateRunSpmv(benchmark::State &state)
{
    auto &f = fixture();
    (void)f;
    auto app = workload::makeBenchmark("Spmv");
    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    auto base = sim.run(app, turbo);
    auto truth = std::make_shared<ml::GroundTruthPredictor>(hw::ApuParams::defaults());
    mpc::MpcGovernor gov(truth, {}, hw::paperApu());
    sim.run(app, gov, base.throughput());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim.run(app, gov, base.throughput()));
    }
}
BENCHMARK(BM_McpSteadyStateRunSpmv)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    return bench::simdBenchmarkMain(argc, argv);
}
