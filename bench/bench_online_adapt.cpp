/**
 * @file
 * google-benchmark study of the online-learning loop: hot-swap
 * publication cost and post-shift accuracy recovery.
 *
 * Two claims are measured:
 *
 *  1. Swap pause (BM_SessionPredictorMiss): publication is one pointer
 *     exchange under a lock held for nothing else, so a publish storm
 *     racing a session's kernel-memo misses must not block
 *     evaluation. The swapstorm:1 variant runs a thread republishing
 *     generations as fast as it can while the client evaluates; the
 *     blocked_evaluates counter - evaluations that took refit-scale
 *     time (> 50 ms) - has a target of ZERO. Throughput should stay
 *     near swapstorm:0; on a 4-vCPU host the storm, running on its own
 *     core at ~1M publishes/s, costs the client about a fifth.
 *
 *  2. Accuracy recovery (BM_FleetAdaptsToShift): the fleet runs on
 *     hardware whose DRAM bus is a quarter the width the forest was
 *     trained against (an injected workload/hardware shift), so the
 *     offline model mispredicts memory-bound kernels persistently.
 *     With --online-learn the drift detector triggers, the learner
 *     refits from the fleet's own observed decisions, and the
 *     per-decision |time error| of late runs (mape_last_pct) must drop
 *     well below the static model's (mape_static_pct counter of the
 *     control variant online:0).
 *
 * The committed baseline lives at docs/perf/BENCH_online.json;
 * regenerate with:
 *
 *     ./build/bench/bench_online_adapt \
 *         --benchmark_out=docs/perf/BENCH_online.json \
 *         --benchmark_out_format=json
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "hw/config.hpp"
#include "kernel/perf_model.hpp"
#include "ml/forest_handle.hpp"
#include "ml/kernel_memo.hpp"
#include "ml/trainer.hpp"
#include "serve/server.hpp"
#include "trace/decision.hpp"
#include "workload/training.hpp"

using namespace gpupm;

namespace {

/** The bench-standard forest (same shape as bench_fleet_throughput). */
std::shared_ptr<const ml::RandomForestPredictor>
forest()
{
    static std::shared_ptr<const ml::RandomForestPredictor> rf = [] {
        ml::TrainerOptions opts;
        opts.corpusSize = 24;
        opts.configStride = 3;
        opts.forest.numTrees = 60;
        return std::shared_ptr<const ml::RandomForestPredictor>(
            ml::trainRandomForestPredictor(opts));
    }();
    return rf;
}

/** A second distinct generation for the publish storm to swap in. */
std::shared_ptr<const ml::RandomForestPredictor>
altForest()
{
    static std::shared_ptr<const ml::RandomForestPredictor> rf = [] {
        ml::TrainerOptions opts;
        opts.corpusSize = 24;
        opts.configStride = 3;
        opts.forest.numTrees = 60;
        opts.seed = 0x7a42ULL;
        return std::shared_ptr<const ml::RandomForestPredictor>(
            ml::trainRandomForestPredictor(opts));
    }();
    return rf;
}

/**
 * Memo-miss latency of a handle-backed KernelMemo (a fleet session's),
 * optionally under a publish storm (state.range(0) != 0): every
 * iteration clears the memo, so predictBatch acquires a generation and
 * walks all of one kernel's kRows configs. The name predates the memo's
 * move into ml and is kept so the committed baseline lines up. Single
 * client thread - the metric is per-call latency of the miss path, not
 * queueing effects.
 */
void
BM_SessionPredictorMiss(benchmark::State &state)
{
    constexpr std::size_t kRows = 16;
    ml::ForestHandle handle(forest());
    ml::KernelMemo memo(handle, hw::paperApu());

    const kernel::GroundTruthModel truth{hw::ApuParams::defaults()};
    const auto k = workload::trainingCorpus(1, 0xbe7cULL)[0];
    const auto c0 = hw::ConfigSpace::maxPerformance();
    ml::PredictionQuery q;
    q.counters = truth.counters(k, c0, truth.estimate(k, c0));
    q.instructions = k.instructions();
    const hw::ConfigSpace space;
    std::vector<hw::HwConfig> configs;
    for (std::size_t i = 0; i < kRows; ++i)
        configs.push_back(space.at((i * 29) % space.size()));
    std::vector<ml::Prediction> out(kRows);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> publishes{0};
    std::thread storm;
    if (state.range(0) != 0) {
        storm = std::thread([&] {
            bool flip = false;
            while (!stop.load(std::memory_order_acquire)) {
                handle.publish(flip ? altForest() : forest());
                flip = !flip;
                publishes.fetch_add(1, std::memory_order_relaxed);
                // Keep the storm from starving the client on small
                // machines; thousands of publishes per second is
                // already orders beyond any real retrain cadence.
                std::this_thread::yield();
            }
        });
    }

    std::uint64_t blocked = 0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        memo.clear();
        memo.predictBatch(q, configs, out);
        const auto dt = std::chrono::steady_clock::now() - t0;
        // Refit-scale pause (a miss waiting out a retrain/publish):
        // must never happen. The bound is far above scheduler jitter on
        // a loaded single-core host but far below any forest refit.
        if (dt > std::chrono::milliseconds(50))
            ++blocked;
        benchmark::DoNotOptimize(out.data());
    }

    stop.store(true, std::memory_order_release);
    if (storm.joinable())
        storm.join();

    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kRows));
    state.counters["blocked_evaluates"] =
        static_cast<double>(blocked);
    state.counters["publishes"] = static_cast<double>(publishes.load());
}
BENCHMARK(BM_SessionPredictorMiss)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("swapstorm")
    ->Unit(benchmark::kMicrosecond);

/** Mean |time error| (%) of run @p run's scored decisions. */
double
runMape(const std::vector<trace::DecisionRecord> &records,
        std::size_t run)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &r : records) {
        if (r.run != run || !r.observed || r.predictedTime < 0.0)
            continue;
        sum += std::fabs(r.timeErrorPct);
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

constexpr std::size_t kOptimizedRuns = 8;

/** Fleet on shifted hardware: DRAM bus a quarter the trained width. */
serve::FleetOptions
shiftedFleet(bool online_learn, trace::DecisionSink *sink)
{
    serve::FleetOptions opts;
    opts.apps = {"color", "mis"};
    opts.sessionCount = 4;
    opts.session.optimizedRuns = kOptimizedRuns;
    opts.cpuPhaseJitter = 0.3;
    opts.seed = 0x90d1ULL;
    hw::ApuParams shifted = hw::ApuParams::defaults();
    shifted.memBusBytes /= 4.0; // the injected shift
    opts.server.model = hw::makeModel("shifted-dram", shifted);
    opts.decisionSink = sink;
    opts.onlineLearn = online_learn;
    // Eager adaptation for the short bench fleet: trigger on small
    // windows, refit from the first few dozen observed rows, and swap
    // synchronously so the recovery split (early vs late runs) is
    // deterministic.
    opts.online.drift.window = 8;
    opts.online.drift.minSamples = 4;
    opts.online.drift.sustain = 2;
    opts.online.minRows = 48;
    opts.online.forest.numTrees = 30;
    opts.online.synchronous = true;
    return opts;
}

/**
 * Post-shift accuracy recovery; online:1 adapts, online:0 is the
 * static control. Wall time includes the fleet run and (online:1) the
 * inline refits.
 */
void
BM_FleetAdaptsToShift(benchmark::State &state)
{
    const bool online = state.range(0) != 0;
    double first = 0.0, last = 0.0, swaps = 0.0, gen = 0.0;
    for (auto _ : state) {
        trace::DecisionLog log;
        const auto result =
            serve::runFleet(forest(), shiftedFleet(online, &log));
        auto records = log.take();
        first = runMape(records, 1);
        last = runMape(records, kOptimizedRuns);
        swaps = static_cast<double>(result.online.swaps);
        gen = static_cast<double>(result.forestGeneration);
        benchmark::DoNotOptimize(result.decisions);
    }
    state.counters[online ? "mape_first_pct" : "mape_static_first_pct"] =
        first;
    state.counters[online ? "mape_last_pct" : "mape_static_pct"] = last;
    state.counters["swaps"] = swaps;
    state.counters["generation"] = gen;
}
BENCHMARK(BM_FleetAdaptsToShift)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("online")
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
