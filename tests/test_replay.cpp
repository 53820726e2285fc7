/**
 * @file
 * Replay suite: decision provenance must be sufficient to re-drive the
 * governor (see replay_fixture.hpp). Pins that records carry the full
 * observation stream - both straight from a live DecisionLog and after
 * a JSONL round-trip through the export format - and that the harness
 * itself detects divergence when the stream is tampered with.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "exec/replay.hpp"
#include "ml/trainer.hpp"
#include "mpc/governor.hpp"
#include "policy/turbo_core.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "trace/jsonl_export.hpp"
#include "workload/benchmarks.hpp"

#include "replay_fixture.hpp"

namespace gpupm::testing {
namespace {

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

/** Simulate profiling + @p runs optimized executions into @p log. */
void
capture(const std::string &bench, std::uint64_t session,
        trace::DecisionLog &log, int runs = 2)
{
    const auto app = workload::makeBenchmark(bench);
    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    const double target = sim.run(app, turbo).throughput();

    mpc::MpcGovernor gov(forest(), {}, hw::paperApu());
    gov.setDecisionSink(&log, session);
    for (int i = 0; i < 1 + runs; ++i)
        sim.run(app, gov, target);
}

std::vector<trace::DecisionRecord>
capturedRecords(const std::string &bench)
{
    trace::DecisionLog log;
    capture(bench, 0, log);
    auto records = log.take();
    trace::sortDecisions(records);
    return records;
}

TEST(Replay, LiveRecordsReplayToByteIdenticalConfigs)
{
    const auto records = capturedRecords("color");
    ASSERT_FALSE(records.empty());

    const auto result = replayDecisions(records, forest());
    EXPECT_EQ(result.decisions, records.size());
    EXPECT_TRUE(result.identical())
        << result.mismatches.size() << " of " << result.decisions
        << " replayed decisions diverged (first at record "
        << (result.mismatches.empty() ? 0
                                      : result.mismatches[0].recordIndex)
        << ")";
}

TEST(Replay, JsonlRoundTripPreservesReplayability)
{
    const auto records = capturedRecords("mis");
    ASSERT_FALSE(records.empty());

    // Through the on-disk format: what `gpupm run --trace-decisions`
    // writes must itself be a complete replay input.
    std::stringstream buf;
    trace::writeDecisionJsonl(buf, records);
    const auto parsed = trace::readDecisionJsonl(buf);
    ASSERT_EQ(parsed.size(), records.size());

    const auto result = replayDecisions(parsed, forest());
    EXPECT_EQ(result.decisions, parsed.size());
    EXPECT_TRUE(result.identical());
}

TEST(Replay, MultipleSessionsReplayIndependently)
{
    trace::DecisionLog log;
    capture("color", 1, log, 1);
    capture("mis", 2, log, 1);
    auto records = log.take();
    trace::sortDecisions(records);

    const auto result = replayDecisions(records, forest());
    EXPECT_EQ(result.decisions, records.size());
    EXPECT_TRUE(result.identical());
}

TEST(Replay, TamperedObservationIsDetected)
{
    auto records = capturedRecords("color");
    ASSERT_GT(records.size(), 4u);

    // Corrupt one profiling-phase observation: the pattern extractor
    // and throughput tracker consume it, so downstream decisions must
    // diverge - proving the harness compares decisions for real rather
    // than vacuously passing.
    auto &victim = records[1];
    auto cs = victim.counters.asArray();
    for (auto &c : cs)
        c *= 37.0;
    victim.counters = kernel::KernelCounters::fromArray(cs);
    victim.measuredTime *= 10.0;
    victim.measuredInstructions *= 0.01;

    const auto result = replayDecisions(records, forest());
    EXPECT_FALSE(result.identical())
        << "corrupting the observation stream did not change any "
           "replayed decision; the replay comparison is vacuous";
}

TEST(ReplayEngine, MpcReplayIsByteIdentical)
{
    // The engine behind `gpupm replay`: same records, same predictor,
    // same options => zero divergences, one governor per session.
    const auto records = capturedRecords("color");
    exec::ReplayOptions opts;
    const auto report = exec::replayRecords(records, forest(), opts);
    EXPECT_EQ(report.decisions, records.size());
    EXPECT_EQ(report.governors, 1u);
    EXPECT_EQ(report.governorName, "MPC");
    EXPECT_TRUE(report.identical())
        << report.divergences.size() << " divergences, first at record "
        << (report.divergences.empty()
                ? 0
                : report.divergences[0].recordIndex);
}

TEST(ReplayEngine, RivalGovernorsReplayTheSameStream)
{
    // Counterfactual mode: the recorded MPC stream re-driven through
    // the reactive baselines. Both must process every record; Turbo
    // (no target tracking, always boost) must disagree with MPC on at
    // least one decision, or the comparison is vacuous.
    const auto records = capturedRecords("mis");

    exec::ReplayOptions turbo;
    turbo.governor = exec::ReplayGovernor::Turbo;
    const auto t = exec::replayRecords(records, nullptr, turbo);
    EXPECT_EQ(t.decisions, records.size());
    EXPECT_EQ(t.governorName, "Turbo Core");
    EXPECT_FALSE(t.identical());

    exec::ReplayOptions pi;
    pi.governor = exec::ReplayGovernor::Pi;
    const auto p = exec::replayRecords(records, nullptr, pi);
    EXPECT_EQ(p.decisions, records.size());
    EXPECT_EQ(p.governorName, "PI");
}

TEST(ReplayEngine, DeadlineQosChangesTheReplayedTargets)
{
    // Replaying under a relaxed deadline rescales every run's target;
    // the MPC optimizer sees the slack and must choose differently
    // somewhere in the stream.
    const auto records = capturedRecords("color");
    exec::ReplayOptions relaxed;
    relaxed.mpc.qos = mpc::QosSpec::deadline(2.0);
    relaxed.qos = relaxed.mpc.qos;
    const auto report = exec::replayRecords(records, forest(), relaxed);
    EXPECT_EQ(report.decisions, records.size());
    EXPECT_FALSE(report.identical())
        << "a 2x deadline slack changed no decision";
}

TEST(ReplayEngine, VariantModelReplayIsByteIdentical)
{
    // `gpupm replay --hw-model M` of a fleet dump recorded on M: the
    // fleet's sessions and the replayed governor both score candidates
    // through a kernel memo built on M's own config descriptors, so a
    // variant model replays as exactly as the paper model does.
    for (const char *name : {"eco-apu", "perf-apu"}) {
        SCOPED_TRACE(name);
        const auto model = hw::HardwareCatalog::instance().get(name);
        trace::DecisionLog log;
        serve::FleetOptions fleet;
        fleet.apps = {"color", "Spmv", "NBody"};
        fleet.sessionCount = 3;
        fleet.hwModels = {name};
        fleet.decisionSink = &log;
        serve::runFleet(forest(), fleet);
        const auto records = log.take();
        ASSERT_FALSE(records.empty());

        exec::ReplayOptions opts;
        opts.model = model;
        const auto report = exec::replayRecords(records, forest(), opts);
        EXPECT_EQ(report.decisions, records.size());
        EXPECT_EQ(report.governors, 3u);
        EXPECT_TRUE(report.identical())
            << report.divergences.size() << " of " << report.decisions
            << " replayed decisions diverged";
    }
}

} // namespace
} // namespace gpupm::testing
