/**
 * @file
 * Tests for the gpupm::trace subsystem: span recording semantics,
 * concurrent emission, exporter schemas, provenance capture, and the
 * determinism contract (tracing must not perturb decisions).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep_jobs.hpp"
#include "exec/thread_pool.hpp"
#include "ml/predictor.hpp"
#include "mpc/governor.hpp"
#include "policy/turbo_core.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "trace/chrome_export.hpp"
#include "trace/decision.hpp"
#include "trace/json.hpp"
#include "trace/jsonl_export.hpp"
#include "trace/trace.hpp"
#include "workload/benchmarks.hpp"

namespace gpupm::trace {
namespace {

/** Every test leaves the process-global tracer disabled. */
class TraceTest : public ::testing::Test
{
  protected:
    void TearDown() override { Tracer::stop(); }
};

TEST_F(TraceTest, DisabledByDefaultAndSpansAreNoops)
{
    ASSERT_FALSE(Tracer::enabled());
    {
        Span s(Category::Sim, "ignored");
        s.arg("x", 1.0);
    }
    Tracer::emit(Category::Sim, "also-ignored", 0, 1);
    // Nothing was recorded; a later session starts empty.
    Tracer::start();
    Tracer::stop();
    EXPECT_TRUE(Tracer::collect().empty());
}

TEST_F(TraceTest, NestedSpansRecordNamesArgsAndContainment)
{
    Tracer::start();
    {
        Span outer(Category::Mpc, "outer", "kernels", 3.0);
        {
            Span inner(Category::Ml, "inner");
            inner.arg("rows", 42.0);
        }
    }
    Tracer::stop();
    const auto events = Tracer::collect();
    ASSERT_EQ(events.size(), 2u);

    // collect() sorts by start time: outer opened first.
    const SpanEvent &outer = events[0];
    const SpanEvent &inner = events[1];
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_EQ(outer.cat, Category::Mpc);
    ASSERT_STREQ(outer.arg0Name, "kernels");
    EXPECT_EQ(outer.arg0, 3.0);
    EXPECT_STREQ(inner.name, "inner");
    ASSERT_STREQ(inner.arg0Name, "rows");
    EXPECT_EQ(inner.arg0, 42.0);

    // Same thread, and the inner interval nests inside the outer one.
    EXPECT_EQ(outer.tid, inner.tid);
    EXPECT_LE(outer.startNs, inner.startNs);
    EXPECT_GE(outer.startNs + outer.durNs, inner.startNs + inner.durNs);
}

TEST_F(TraceTest, ThirdArgIsDroppedNotCorrupting)
{
    Tracer::start();
    {
        Span s(Category::Exec, "spanargs");
        s.arg("a", 1.0);
        s.arg("b", 2.0);
        s.arg("c", 3.0); // no third slot: silently dropped
    }
    Tracer::stop();
    const auto events = Tracer::collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].arg0Name, "a");
    EXPECT_STREQ(events[0].arg1Name, "b");
    EXPECT_EQ(events[0].arg1, 2.0);
}

TEST_F(TraceTest, FullRingDropsInsteadOfWrapping)
{
    Tracer::start(/*per_thread_capacity=*/8);
    for (int i = 0; i < 100; ++i)
        Tracer::emit(Category::Sim, "e", i, 1);
    Tracer::stop();
    EXPECT_EQ(Tracer::collect().size(), 8u);
    EXPECT_EQ(Tracer::dropped(), 92u);
}

TEST_F(TraceTest, RestartDiscardsThePreviousSession)
{
    Tracer::start();
    Tracer::emit(Category::Sim, "old", 0, 1);
    Tracer::start();
    Tracer::emit(Category::Sim, "new", 0, 1);
    Tracer::stop();
    const auto events = Tracer::collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "new");
}

TEST_F(TraceTest, ConcurrentEmissionAndCollectionIsSafe)
{
    // Hammer the recorder from a pool while the workers also snapshot
    // mid-flight; run under TSan to verify the lock-free publication.
    // A collect copies and sorts every event so far, so a collect per
    // span makes the test quadratic in its span count; each worker
    // collects after every 64th span instead, and a reader still
    // races the writers throughout.
    constexpr std::size_t threads = 8;
    constexpr std::size_t per_thread = 2000;
    constexpr std::size_t collect_every = 64;
    Tracer::start(per_thread);
    exec::ThreadPool pool(threads);
    pool.parallelFor(threads, [&](std::size_t t) {
        for (std::size_t i = 0; i < per_thread; ++i) {
            Span s(Category::Exec, "worker", "t",
                   static_cast<double>(t));
            if (i % collect_every == 0)
                (void)Tracer::collect(); // reader racing the writers
        }
    });
    Tracer::stop();
    const auto events = Tracer::collect();
    EXPECT_EQ(events.size() + Tracer::dropped(), threads * per_thread);
    for (const auto &e : events) {
        EXPECT_STREQ(e.name, "worker");
        EXPECT_GE(e.tid, 1u);
    }
    // Sorted by (startNs, tid).
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LE(events[i - 1].startNs, events[i].startNs);
    }
}

TEST_F(TraceTest, ChromeExportMatchesTraceEventSchema)
{
    Tracer::start();
    {
        Span s(Category::Serve, "serve.step", "session", 7.0);
        s.arg("run", 2.0);
    }
    Tracer::emit(Category::Ml, "bare", 10, 5);
    Tracer::stop();

    std::ostringstream os;
    writeChromeTrace(os, Tracer::collect());

    std::string err;
    const auto doc = json::parse(os.str(), &err);
    ASSERT_TRUE(doc) << err;
    ASSERT_TRUE(doc->isObject());
    ASSERT_NE(doc->find("displayTimeUnit"), nullptr);
    EXPECT_EQ(doc->find("displayTimeUnit")->asString(), "ms");

    const auto *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->asArray().size(), 2u);
    for (const auto &e : events->asArray()) {
        EXPECT_EQ(e.find("ph")->asString(), "X");
        EXPECT_EQ(e.find("pid")->asNumber(), 1.0);
        EXPECT_GE(e.find("tid")->asNumber(), 1.0);
        EXPECT_TRUE(e.find("name")->isString());
        EXPECT_TRUE(e.find("cat")->isString());
        EXPECT_TRUE(e.find("ts")->isNumber());
        EXPECT_TRUE(e.find("dur")->isNumber());
    }

    // The spanned event carries its args; the bare one has none.
    // (Order follows recorded start times, so look events up by name.)
    const json::Value *span_ev = nullptr, *bare_ev = nullptr;
    for (const auto &e : events->asArray()) {
        if (e.find("name")->asString() == "serve.step")
            span_ev = &e;
        else if (e.find("name")->asString() == "bare")
            bare_ev = &e;
    }
    ASSERT_NE(span_ev, nullptr);
    ASSERT_NE(bare_ev, nullptr);
    const auto *args = span_ev->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("session")->asNumber(), 7.0);
    EXPECT_EQ(args->find("run")->asNumber(), 2.0);
    EXPECT_EQ(bare_ev->find("args"), nullptr);
}

void
expectRecordsEqual(const DecisionRecord &a, const DecisionRecord &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.session, b.session);
    EXPECT_EQ(a.run, b.run);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.profiling, b.profiling);
    EXPECT_EQ(a.kernelSignature, b.kernelSignature);
    EXPECT_EQ(a.horizon, b.horizon);
    EXPECT_EQ(a.hasHeadroom, b.hasHeadroom);
    EXPECT_EQ(a.headroom, b.headroom);
    EXPECT_EQ(a.configIndex, b.configIndex);
    EXPECT_EQ(a.predictedTime, b.predictedTime);
    EXPECT_EQ(a.predictedEnergy, b.predictedEnergy);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.uniqueEvaluations, b.uniqueEvaluations);
    EXPECT_EQ(a.overheadTime, b.overheadTime);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.observed, b.observed);
    EXPECT_EQ(a.measuredTime, b.measuredTime);
    EXPECT_EQ(a.measuredGpuPower, b.measuredGpuPower);
    EXPECT_EQ(a.timeErrorPct, b.timeErrorPct);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.measuredInstructions, b.measuredInstructions);
    EXPECT_EQ(a.nonKernelTime, b.nonKernelTime);
    EXPECT_EQ(a.targetThroughput, b.targetThroughput);
}

TEST(DecisionJsonl, RoundTripIsExact)
{
    std::vector<DecisionRecord> recs;

    DecisionRecord a;
    a.app = "quote\"back\\slash\nnewline\ttab\x01control µ≈";
    // Counters are serialized as JSON numbers: exact up to 2^53.
    a.session = (1ULL << 53) - 1;
    a.run = 3;
    a.index = 17;
    a.tag = 'W';
    a.kernelSignature = 0x8000000000000001ULL; // > 2^53: needs hex
    a.horizon = 5;
    a.hasHeadroom = true;
    a.headroom = 1.0 / 3.0;
    a.configIndex = 311;
    a.predictedTime = 1e-300;
    a.predictedEnergy = 1.7976931348623157e308;
    a.evaluations = 40;
    a.uniqueEvaluations = 12;
    a.overheadTime = -5.5e-15;
    a.candidates.push_back({311, 0.1, 0.30000000000000004, false});
    a.candidates.push_back({42, 2.2250738585072014e-308, -0.0, true});
    a.observed = true;
    a.measuredTime = 0.1 + 0.2; // not representable as 0.3
    a.measuredGpuPower = 13.37;
    a.timeErrorPct = -2.5;
    a.counters = kernel::KernelCounters::fromArray(
        {1048576.0, 37.5, 88.8, 1.0 / 7.0, 12.0, 0.25,
         6.02214076e23, 4096.5});
    a.measuredInstructions = 9.007199254740993e15; // > 2^53
    a.nonKernelTime = 2.5e-4;
    a.targetThroughput = 1.0 / 0.007;
    recs.push_back(a);

    DecisionRecord b; // profiling decision: never optimized, unobserved
    b.app = "plain";
    b.tag = 'P';
    b.profiling = true;
    b.configIndex = 1079;
    recs.push_back(b);

    std::ostringstream os;
    writeDecisionJsonl(os, recs);

    std::istringstream is(os.str());
    const auto back = readDecisionJsonl(is);
    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        expectRecordsEqual(recs[i], back[i]);

    // And the re-serialization is byte-identical.
    std::ostringstream os2;
    writeDecisionJsonl(os2, back);
    EXPECT_EQ(os.str(), os2.str());
}

TEST(DecisionJsonl, SortIsCanonical)
{
    auto make = [](const char *app, std::uint64_t s, std::size_t r,
                   std::size_t i) {
        DecisionRecord rec;
        rec.app = app;
        rec.session = s;
        rec.run = r;
        rec.index = i;
        return rec;
    };
    std::vector<DecisionRecord> recs = {
        make("b", 0, 0, 0), make("a", 1, 0, 0), make("a", 0, 1, 0),
        make("a", 0, 0, 1), make("a", 0, 0, 0)};
    sortDecisions(recs);
    EXPECT_EQ(recs[0].app, "a");
    EXPECT_EQ(recs[0].session, 0u);
    EXPECT_EQ(recs[0].run, 0u);
    EXPECT_EQ(recs[0].index, 0u);
    EXPECT_EQ(recs[1].index, 1u);
    EXPECT_EQ(recs[2].run, 1u);
    EXPECT_EQ(recs[3].session, 1u);
    EXPECT_EQ(recs[4].app, "b");
}

// The online-learning loop drains the sink with take() while fleet
// sessions keep record()ing: every record must land in exactly one
// drain (swap-under-lock), with none lost, torn, or duplicated.
TEST(DecisionLog, TakeUnderConcurrentRecordLosesNothing)
{
    constexpr int kWriters = 4;
    constexpr std::size_t kPerWriter = 2000;

    DecisionLog log;
    std::atomic<bool> done{false};
    std::vector<DecisionRecord> drained;

    std::thread drainer([&] {
        // Keep draining until all writers finished, then once more to
        // sweep the tail.
        while (!done.load(std::memory_order_acquire)) {
            auto batch = log.take();
            drained.insert(drained.end(),
                           std::make_move_iterator(batch.begin()),
                           std::make_move_iterator(batch.end()));
        }
        auto tail = log.take();
        drained.insert(drained.end(),
                       std::make_move_iterator(tail.begin()),
                       std::make_move_iterator(tail.end()));
    });

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&log, w] {
            for (std::size_t i = 0; i < kPerWriter; ++i) {
                DecisionRecord r;
                r.app = "hammer";
                r.session = static_cast<std::uint64_t>(w);
                r.index = i;
                log.record(std::move(r));
            }
        });
    for (auto &t : writers)
        t.join();
    done.store(true, std::memory_order_release);
    drainer.join();

    ASSERT_EQ(drained.size(), kWriters * kPerWriter);
    EXPECT_EQ(log.size(), 0u);
    // Per-writer order is preserved and every index appears once.
    std::array<std::size_t, kWriters> next{};
    sortDecisions(drained);
    for (const auto &r : drained) {
        ASSERT_LT(r.session, static_cast<std::uint64_t>(kWriters));
        EXPECT_EQ(r.index, next[r.session]++);
    }
    for (std::size_t n : next)
        EXPECT_EQ(n, kPerWriter);
}

/** MPC over a small benchmark, optionally with a provenance sink. */
sim::RunResult
governedRun(DecisionLog *log, int optimized_runs = 2)
{
    const auto app = workload::makeBenchmark("Spmv");
    auto pred = std::make_shared<ml::GroundTruthPredictor>(hw::ApuParams::defaults());
    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    const auto target = sim.run(app, turbo).throughput();

    mpc::MpcGovernor gov(pred, {}, hw::paperApu());
    if (log)
        gov.setDecisionSink(log, /*session=*/9);
    sim::RunResult last = sim.run(app, gov, target); // profiling
    for (int i = 0; i < optimized_runs; ++i)
        last = sim.run(app, gov, target);
    return last;
}

TEST(Provenance, OneObservedRecordPerDecision)
{
    DecisionLog log;
    governedRun(&log);
    auto recs = log.take();

    const auto app = workload::makeBenchmark("Spmv");
    ASSERT_EQ(recs.size(), 3 * app.trace.size()); // 1 profiling + 2 opt
    sortDecisions(recs);

    for (std::size_t i = 0; i < recs.size(); ++i) {
        const auto &r = recs[i];
        EXPECT_EQ(r.app, "Spmv");
        EXPECT_EQ(r.session, 9u);
        EXPECT_EQ(r.run, i / app.trace.size());
        EXPECT_EQ(r.index, i % app.trace.size());
        EXPECT_TRUE(r.observed);
        EXPECT_GT(r.measuredTime, 0.0);
        EXPECT_GT(r.measuredGpuPower, 0.0);
        EXPECT_NE(r.kernelSignature, 0u);
        if (r.run == 0) {
            // The first execution is the PPK profiling run.
            EXPECT_EQ(r.tag, 'P');
            EXPECT_TRUE(r.profiling);
            EXPECT_TRUE(r.candidates.empty());
        } else {
            EXPECT_TRUE(r.tag == 'W' || r.tag == 'F' || r.tag == 'B')
                << r.tag;
            EXPECT_FALSE(r.profiling);
        }
        if (r.tag == 'W') {
            // Hill-climb decisions expose their search: the chosen
            // configuration is among the scored candidates, and the
            // model's prediction for it is recorded.
            EXPECT_TRUE(r.hasHeadroom);
            EXPECT_FALSE(r.candidates.empty());
            EXPECT_GE(r.predictedTime, 0.0);
            bool found = false;
            for (const auto &c : r.candidates)
                found |= c.configIndex == r.configIndex;
            EXPECT_TRUE(found) << "chosen config not among candidates";
            EXPECT_GE(r.evaluations, r.candidates.size());
        }
    }
}

TEST(Provenance, SinkDoesNotPerturbDecisions)
{
    DecisionLog log;
    const auto with = governedRun(&log);
    const auto without = governedRun(nullptr);

    ASSERT_EQ(with.records.size(), without.records.size());
    EXPECT_EQ(with.totalEnergy(), without.totalEnergy());
    EXPECT_EQ(with.totalTime(), without.totalTime());
    for (std::size_t i = 0; i < with.records.size(); ++i) {
        EXPECT_EQ(with.records[i].config,
                  without.records[i].config);
        EXPECT_EQ(with.records[i].kernelTime,
                  without.records[i].kernelTime);
    }
}

TEST(Provenance, FleetTraceIsByteIdenticalWithTracingOn)
{
    auto pred = std::make_shared<ml::GroundTruthPredictor>(hw::ApuParams::defaults());
    serve::FleetOptions opts;
    opts.server.jobs = 4;
    opts.apps = {"Spmv", "NBody"};
    opts.sessionCount = 4;

    const auto plain = serve::runFleet(pred, opts);

    Tracer::start();
    DecisionLog log;
    opts.decisionSink = &log;
    const auto traced = serve::runFleet(pred, opts);
    Tracer::stop();

    EXPECT_EQ(serve::serializeFleetTrace(plain.trace),
              serve::serializeFleetTrace(traced.trace));
    // One provenance record per decision, and spans were recorded.
    EXPECT_EQ(log.size(), traced.decisions);
    EXPECT_FALSE(Tracer::collect().empty());
}

TEST(Provenance, SweepJobCapturesProvenanceWithoutChangingResults)
{
    exec::SimJob job;
    job.app = workload::makeBenchmark("Spmv");
    job.predictor = std::make_shared<ml::GroundTruthPredictor>(hw::ApuParams::defaults());
    job.policy = exec::SimJob::Policy::Mpc;
    job.mpcRuns = 1;

    const auto plain = exec::runSimJob(job, hw::paperApu());

    DecisionLog log;
    job.decisionSink = &log;
    job.traceSession = 5;
    const auto traced = exec::runSimJob(job, hw::paperApu());

    EXPECT_EQ(plain.totalEnergy(), traced.totalEnergy());
    EXPECT_EQ(plain.totalTime(), traced.totalTime());
    ASSERT_EQ(log.size(), 2 * job.app.trace.size());
    const auto recs = log.take();
    for (const auto &r : recs)
        EXPECT_EQ(r.session, 5u);
}

} // namespace
} // namespace gpupm::trace
