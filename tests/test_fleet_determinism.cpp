/**
 * @file
 * Golden-trace regression suite for the fleet server's determinism
 * contract: an 8-session fleet of RF-governed benchmarks must produce
 * a byte-identical decision trace at --jobs 1 and --jobs 8, and both
 * must match the checked-in golden trace
 * (tests/golden/fleet_golden.jsonl).
 *
 * Regenerating the golden file (after an intentional model, governor
 * or serve-path change):
 *
 *     GPUPM_REGEN_GOLDEN=1 ./build/tests/test_fleet_determinism
 *
 * writes the new trace into the source tree; review the diff like any
 * other code change. Records are serialized with %.17g, which
 * round-trips doubles exactly, so a single-ULP behaviour change shows
 * up as a test failure, not as silent drift.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ml/trainer.hpp"
#include "serve/server.hpp"

#ifndef GPUPM_GOLDEN_DIR
#error "tests/CMakeLists.txt must define GPUPM_GOLDEN_DIR"
#endif

namespace gpupm::serve {
namespace {

constexpr char kGoldenPath[] = GPUPM_GOLDEN_DIR "/fleet_golden.jsonl";

/** One tiny forest shared by every test (training dominates runtime). */
std::shared_ptr<const ml::RandomForestPredictor>
forest()
{
    static std::shared_ptr<const ml::RandomForestPredictor> rf = [] {
        ml::TrainerOptions opts;
        opts.corpusSize = 16;
        opts.configStride = 4;
        opts.forest.numTrees = 8;
        return std::shared_ptr<const ml::RandomForestPredictor>(
            ml::trainRandomForestPredictor(opts));
    }();
    return rf;
}

/** The pinned fleet: 8 sessions round-robin over two benchmarks. */
FleetOptions
goldenFleet(std::size_t jobs)
{
    FleetOptions opts;
    opts.server.jobs = jobs;
    opts.apps = {"color", "mis"};
    opts.sessionCount = 8;
    opts.cpuPhaseJitter = 0.3; // heterogeneous but seed-derived phases
    opts.seed = 0x90d1ULL;
    return opts;
}

FleetResult
runAt(std::size_t jobs)
{
    return runFleet(forest(), goldenFleet(jobs));
}

TEST(FleetDeterminism, ParallelFleetIsByteIdenticalToSerial)
{
    const auto serial = runAt(1);
    const auto parallel = runAt(8);
    // Byte-identical, not approximately equal: sessions are isolated,
    // per-row predictions are pure, and the gather order is fixed, so
    // worker scheduling can never influence the trace.
    ASSERT_EQ(serializeFleetTrace(serial.trace),
              serializeFleetTrace(parallel.trace));
    EXPECT_EQ(serial.decisions, parallel.decisions);
}

TEST(FleetDeterminism, MatchesGoldenTrace)
{
    const std::string current = serializeFleetTrace(runAt(8).trace);

    if (std::getenv("GPUPM_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(kGoldenPath, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << kGoldenPath;
        os << current;
        GTEST_SKIP() << "golden trace regenerated at " << kGoldenPath;
    }

    std::ifstream is(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden trace " << kGoldenPath
                    << "; regenerate with GPUPM_REGEN_GOLDEN=1";
    std::ostringstream golden;
    golden << is.rdbuf();
    EXPECT_EQ(golden.str(), current)
        << "fleet trace drifted from the golden trace; if the change "
           "is intentional, rerun with GPUPM_REGEN_GOLDEN=1 and "
           "commit the diff";
}

TEST(FleetDeterminism, RepeatedParallelRunsAgree)
{
    EXPECT_EQ(serializeFleetTrace(runAt(3).trace),
              serializeFleetTrace(runAt(5).trace));
}

TEST(FleetDeterminism, OnlineLearnWithoutDriftIsByteIdentical)
{
    // Observer-until-trigger contract: with --online-learn on but no
    // drift, the learner must be a pure observer - the trace stays
    // byte-identical to the static fleet's, and no retrain ever runs.
    // "No drift" is forced via the threshold: the deliberately tiny
    // test forest genuinely exceeds the paper's 25% baseline on live
    // windows, and this test is about the observation path (handle-
    // routed session predictors, generation-keyed memos, row
    // accumulation), not
    // about when the detector fires (test_drift_detector pins that).
    auto online = goldenFleet(4);
    online.onlineLearn = true;
    online.online.drift.timeThresholdPct = 1e9;
    const auto learned = runFleet(forest(), online);
    const auto statics = runFleet(forest(), goldenFleet(4));

    EXPECT_EQ(serializeFleetTrace(statics.trace),
              serializeFleetTrace(learned.trace));
    EXPECT_GT(learned.online.observed, 0u);
    EXPECT_GT(learned.online.rows, 0u); // accumulation ran for real
    EXPECT_EQ(learned.online.triggers, 0u);
    EXPECT_EQ(learned.online.swaps, 0u);
    EXPECT_EQ(learned.forestGeneration, 0u);
}

TEST(FleetDeterminism, ScalarFleetReportsScalarRows)
{
    // One row counter: the per-engine names must not come back.
    const auto result = runAt(2);
    const auto &c = result.metrics.counters;
    ASSERT_NE(c.find("ml.rows"), c.end());
    EXPECT_GT(c.at("ml.rows"), 0u);
    for (const char *gone :
         {"ml.rows_scalar", "ml.rows_fallback", "ml.rows_avx2"})
        EXPECT_EQ(c.find(gone), c.end()) << gone;
}

TEST(FleetDeterminism, ShardedFleetIsByteIdenticalAcrossShardCounts)
{
    // The acceptance contract of sharding: tenant-hash routing and
    // split session managers are invisible in the trace. Session ids
    // come from one global counter and predictions are pure per row,
    // so the bytes at --shards 1 (the golden configuration) and any
    // other shard count must be identical.
    const std::string base = serializeFleetTrace(runAt(8).trace);
    for (const std::size_t shards : {2ul, 4ul, 7ul}) {
        auto opts = goldenFleet(8);
        opts.server.shards = shards;
        const auto result = runFleet(forest(), opts);
        EXPECT_EQ(base, serializeFleetTrace(result.trace))
            << "trace drifted at shards=" << shards;
    }
}

TEST(FleetDeterminism, PerTenantStreamsAreShardAndJobInvariant)
{
    // Stronger statement of the same contract, per tenant: each
    // session's own decision stream is byte-identical no matter how
    // the fleet was sharded or how many workers drained it.
    const auto byTenant = [](const FleetResult &result) {
        std::map<SessionId, std::vector<DecisionRecord>> streams;
        for (const auto &rec : result.trace)
            streams[rec.session].push_back(rec);
        return streams;
    };

    const auto reference = byTenant(runAt(1)); // 1 shard, 1 job
    auto opts = goldenFleet(6);
    opts.server.shards = 3;
    const auto sharded = byTenant(runFleet(forest(), opts));

    ASSERT_EQ(sharded.size(), reference.size());
    for (const auto &[session, stream] : reference) {
        ASSERT_TRUE(sharded.count(session)) << "tenant " << session;
        EXPECT_EQ(serializeFleetTrace(stream),
                  serializeFleetTrace(sharded.at(session)))
            << "tenant " << session << " stream drifted";
    }
}

TEST(FleetDeterminism, ShardedFleetAccountsEveryDecisionOnce)
{
    auto opts = goldenFleet(8);
    opts.server.shards = 4;
    const auto result = runFleet(forest(), opts);
    EXPECT_EQ(result.trace.size(), result.decisions);
    EXPECT_EQ(result.degradedDecisions, 0u); // shedding is off
    const auto &lat =
        result.metrics.histograms.at("serve.decision_latency_ns");
    EXPECT_EQ(lat.count, result.decisions);
}

TEST(FleetDeterminism, ForcedSheddingMarksDegradedDecisions)
{
    // targetDepth 0 with a one-sample window means the first admission
    // that observes a non-empty queue flips the shard into degraded
    // mode, and the exit threshold (mean depth < 0) is unsatisfiable,
    // so the fleet finishes on the fail-safe path. Which decisions run
    // degraded depends on real queue timing - nothing here is compared
    // against a golden - but the accounting must be exact: trace,
    // counters and provenance marks all agree. The queue and its shed
    // controller are server-wide, so a sharded server sheds alike.
    for (const std::size_t shards : {1ul, 3ul}) {
        SCOPED_TRACE(testing::Message() << "shards=" << shards);
        auto opts = goldenFleet(2);
        opts.sessionCount = 32;
        opts.server.shards = shards;
        opts.server.shed.enabled = true;
        opts.server.shed.window = 1;
        opts.server.shed.targetDepth = 0;
        opts.server.shed.sustain = 1;
        const auto result = runFleet(forest(), opts);

        EXPECT_EQ(result.trace.size(), result.decisions);
        EXPECT_GT(result.degradedDecisions, 0u);
        std::size_t marked = 0;
        for (const auto &rec : result.trace)
            marked += rec.degraded ? 1u : 0u;
        EXPECT_EQ(marked, result.degradedDecisions);
        const auto &c = result.metrics.counters;
        ASSERT_TRUE(c.count("serve.shed_degraded_decisions"));
        EXPECT_EQ(c.at("serve.shed_degraded_decisions"),
                  result.degradedDecisions);
        ASSERT_TRUE(c.count("serve.shed_enters"));
        EXPECT_GE(c.at("serve.shed_enters"), 1u);
        // Serialization carries the provenance mark - and only on
        // degraded records, so shed-free traces keep their golden bytes.
        const auto text = serializeFleetTrace(result.trace);
        EXPECT_NE(text.find("\"dg\":1"), std::string::npos);
    }
}

TEST(FleetDeterminism, CappedFleetIsByteIdenticalAcrossShardsAndJobs)
{
    // The power-cap determinism contract: shares come from
    // registration-time demand, violation windows advance only in each
    // session's own decision stream, and arbiter ticks are idempotent,
    // so a capped fleet's trace is byte-identical at any (shards,
    // jobs) combination - including the "cap"/"cl" fields.
    auto base = goldenFleet(1);
    base.server.powercap.budgetWatts = 120.0;
    const std::string reference =
        serializeFleetTrace(runFleet(forest(), base).trace);
    EXPECT_NE(reference.find("\"cap\":"), std::string::npos);
    for (const auto [shards, jobs] :
         {std::pair<std::size_t, std::size_t>{1, 8},
          std::pair<std::size_t, std::size_t>{3, 4},
          std::pair<std::size_t, std::size_t>{4, 8}}) {
        auto opts = goldenFleet(jobs);
        opts.server.shards = shards;
        opts.server.powercap.budgetWatts = 120.0;
        EXPECT_EQ(reference,
                  serializeFleetTrace(runFleet(forest(), opts).trace))
            << "capped trace drifted at shards=" << shards
            << " jobs=" << jobs;
    }
}

TEST(FleetDeterminism, KernelMemoCapDoesNotChangeDecisions)
{
    // The kernel memo caches forest outputs, never choices, and the
    // forests evaluate rows independently: a session's cap (0 = every
    // prediction walks the forests) may change its cost, never a byte
    // of its trace - uncapped or under a fleet power budget, where the
    // per-session cap moves between decisions.
    for (const Watts budget : {0.0, 120.0}) {
        SCOPED_TRACE(testing::Message() << "budget=" << budget);
        std::string reference;
        for (const std::size_t cap : {32ul, 1ul, 0ul}) {
            auto opts = goldenFleet(4);
            opts.server.powercap.budgetWatts = budget;
            opts.session.kernelCacheCap = cap;
            const auto result = runFleet(forest(), opts);
            const std::string text = serializeFleetTrace(result.trace);
            if (cap == 32)
                reference = text;
            EXPECT_EQ(reference, text) << "trace drifted at cap " << cap;
            // The sessions publish their memo counts to telemetry.
            const auto &c = result.metrics.counters;
            ASSERT_TRUE(c.count("serve.cache_hit_queries"));
            ASSERT_TRUE(c.count("serve.cache_miss_queries"));
            if (cap == 0) {
                EXPECT_EQ(c.at("serve.cache_hit_queries"), 0u);
                EXPECT_EQ(c.at("serve.cache_miss_queries"), 0u);
            } else {
                EXPECT_GT(c.at("serve.cache_hit_queries"), 0u);
                EXPECT_GT(c.at("serve.cache_miss_queries"), 0u);
            }
            if (cap == 1)
                EXPECT_GT(c.at("serve.kernel_evictions"), 0u);
        }
    }
}

TEST(FleetDeterminism, UncappedFleetKeepsItsGoldenBytes)
{
    // Running through the powercap-aware code paths with the arbiter
    // disabled must not perturb a single byte: no "cap" keys, same
    // decisions, same golden trace as before the subsystem existed.
    const std::string text = serializeFleetTrace(runAt(4).trace);
    EXPECT_EQ(text.find("\"cap\":"), std::string::npos);
    EXPECT_EQ(text.find("\"cl\":"), std::string::npos);
}

TEST(FleetDeterminism, CappedFleetLowersPowerAndAccountsViolations)
{
    // Sanity on the control effect, not just the bookkeeping: with a
    // tight budget, the fleet must consume less total energy per unit
    // time than uncapped, some decisions must be marked cap-limited,
    // and the counters must agree with the trace marks.
    const auto uncapped = runFleet(forest(), goldenFleet(4));
    auto opts = goldenFleet(4);
    opts.server.powercap.budgetWatts = 60.0; // ~7.5 W/session: tight
    const auto capped = runFleet(forest(), opts);

    ASSERT_EQ(capped.trace.size(), uncapped.trace.size());
    const auto meanPower = [](const FleetResult &result) {
        // measuredPower = step energy / step wall time, so wall time
        // is recoverable per record and the fleet mean is energy-true.
        double energy = 0.0;
        double time = 0.0;
        for (const auto &rec : result.trace) {
            const double e = rec.cpuEnergy + rec.gpuEnergy;
            energy += e;
            if (rec.measuredPower > 0.0)
                time += e / rec.measuredPower;
        }
        return energy / time;
    };
    EXPECT_LT(meanPower(capped), meanPower(uncapped));

    EXPECT_GT(capped.capLimitedDecisions, 0u);
    EXPECT_GT(capped.arbiterTicks, 0u);
    std::size_t marked = 0;
    for (const auto &rec : capped.trace)
        marked += rec.capLimited ? 1u : 0u;
    EXPECT_EQ(marked, capped.capLimitedDecisions);
    EXPECT_EQ(uncapped.capLimitedDecisions, 0u);
    EXPECT_EQ(uncapped.capViolations, 0u);
}

constexpr char kMixedGoldenPath[] =
    GPUPM_GOLDEN_DIR "/fleet_mixed_golden.jsonl";

/**
 * The pinned heterogeneous fleet: three catalog models cycled over the
 * golden fleet's 8 sessions, with every other session on a deadline
 * QoS (1.3x slack) and the rest on the uniform alpha objective.
 */
FleetOptions
mixedFleet(std::size_t jobs)
{
    auto opts = goldenFleet(jobs);
    opts.hwModels = {"paper-apu", "eco-apu", "perf-apu"};
    opts.deadlines = {0.0, 1.3};
    return opts;
}

TEST(FleetDeterminism, HomogeneousPaperApuFleetKeepsGoldenBytes)
{
    // Naming the default model explicitly must be invisible: same
    // bytes as the implicit-default fleet, and no "hw" provenance keys
    // (those mark non-default models only).
    auto opts = goldenFleet(4);
    opts.hwModels = {"paper-apu", "paper-apu"};
    const auto result = runFleet(forest(), opts);
    const auto text = serializeFleetTrace(result.trace);
    EXPECT_EQ(text, serializeFleetTrace(runAt(4).trace));
    EXPECT_EQ(text.find("\"hw\":"), std::string::npos);
    ASSERT_EQ(result.sessionsPerModel.size(), 1u);
    EXPECT_EQ(result.sessionsPerModel.at("paper-apu"),
              result.sessions);
}

TEST(FleetDeterminism, MixedFleetIsByteIdenticalAcrossShardsAndJobs)
{
    // Heterogeneous hardware and mixed QoS ride the same determinism
    // contract as everything else: per-session models and targets are
    // fixed at creation, so (shards, jobs) cannot move a byte.
    const std::string reference =
        serializeFleetTrace(runFleet(forest(), mixedFleet(1)).trace);
    EXPECT_NE(reference.find("\"hw\":\"eco-apu\""), std::string::npos);
    EXPECT_NE(reference.find("\"hw\":\"perf-apu\""), std::string::npos);
    for (const auto [shards, jobs] :
         {std::pair<std::size_t, std::size_t>{1, 8},
          std::pair<std::size_t, std::size_t>{3, 4}}) {
        auto opts = mixedFleet(jobs);
        opts.server.shards = shards;
        EXPECT_EQ(reference,
                  serializeFleetTrace(runFleet(forest(), opts).trace))
            << "mixed trace drifted at shards=" << shards
            << " jobs=" << jobs;
    }
}

TEST(FleetDeterminism, MixedFleetMatchesGoldenTrace)
{
    const std::string current =
        serializeFleetTrace(runFleet(forest(), mixedFleet(8)).trace);

    if (std::getenv("GPUPM_REGEN_GOLDEN") != nullptr) {
        std::ofstream os(kMixedGoldenPath, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << kMixedGoldenPath;
        os << current;
        GTEST_SKIP() << "golden trace regenerated at "
                     << kMixedGoldenPath;
    }

    std::ifstream is(kMixedGoldenPath, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden trace " << kMixedGoldenPath
                    << "; regenerate with GPUPM_REGEN_GOLDEN=1";
    std::ostringstream golden;
    golden << is.rdbuf();
    EXPECT_EQ(golden.str(), current)
        << "mixed fleet trace drifted from the golden trace; if the "
           "change is intentional, rerun with GPUPM_REGEN_GOLDEN=1 "
           "and commit the diff";
}

TEST(FleetDeterminism, MixedFleetAccountsModelsAndDeadlines)
{
    const auto result = runFleet(forest(), mixedFleet(4));
    // 8 sessions cycled over 3 models: paper gets indices {0,3,6},
    // eco {1,4,7}, perf {2,5}.
    ASSERT_EQ(result.sessionsPerModel.size(), 3u);
    EXPECT_EQ(result.sessionsPerModel.at("paper-apu"), 3u);
    EXPECT_EQ(result.sessionsPerModel.at("eco-apu"), 3u);
    EXPECT_EQ(result.sessionsPerModel.at("perf-apu"), 2u);
    std::size_t total = 0;
    for (const auto &[name, count] : result.sessionsPerModel)
        total += count;
    EXPECT_EQ(total, result.sessions);

    // Deadline misses in the result must agree with the per-record
    // provenance marks (and with the telemetry counter when nonzero).
    std::size_t marked = 0;
    for (const auto &rec : result.trace)
        marked += rec.deadlineMissed ? 1u : 0u;
    EXPECT_EQ(marked, result.deadlineMisses);
    const auto it =
        result.metrics.counters.find("serve.deadline_misses");
    const std::uint64_t counted =
        it != result.metrics.counters.end() ? it->second : 0u;
    EXPECT_EQ(counted, result.deadlineMisses);
}

TEST(FleetDeterminismDeathTest, NegativeDeadlineIsFatal)
{
    auto opts = goldenFleet(1);
    opts.sessionCount = 1;
    opts.deadlines = {-0.5};
    EXPECT_EXIT(runFleet(forest(), opts),
                testing::ExitedWithCode(1), "deadline factor");
}

TEST(FleetDeterminism, TraceIsOrderedAndComplete)
{
    const auto result = runAt(2);
    ASSERT_FALSE(result.trace.empty());
    EXPECT_EQ(result.trace.size(), result.decisions);
    // (session, run, index) strictly increasing lexicographically.
    for (std::size_t i = 1; i < result.trace.size(); ++i) {
        const auto &a = result.trace[i - 1];
        const auto &b = result.trace[i];
        const auto ka = std::tuple(a.session, a.run, a.index);
        const auto kb = std::tuple(b.session, b.run, b.index);
        EXPECT_LT(ka, kb) << "record " << i;
    }
    // Per-session decision latency was accounted for every decision.
    const auto &lat =
        result.metrics.histograms.at("serve.decision_latency_ns");
    EXPECT_EQ(lat.count, result.decisions);
}

} // namespace
} // namespace gpupm::serve
