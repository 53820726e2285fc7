/**
 * @file
 * The sharded fleet decision server and the deterministic fleet
 * driver.
 *
 * FleetServer glues the serve subsystem together: one bounded
 * RequestQueue and one ShedController for the whole server, drained
 * by `jobs` worker threads that each block in the queue's pop() and
 * step whatever request comes next, and N session *shards*, keyed by
 * tenant hash, each owning its own SessionManager, so checkout-lease
 * acquisition never crosses shards (the former global manager lock
 * was the fleet's serialization point). A worker walks its decision's
 * memo misses itself (each session's ml::KernelMemo); nothing batches
 * across sessions.
 *
 * Identity is global: session ids come from one server-wide counter,
 * so a tenant's id - and therefore its per-session RNG stream and
 * its whole decision trace - does not depend on the shard count.
 * Routing is pure (mix64(id) % shards), never a map lookup.
 *
 * Overload control: every admission samples the queue depth into a
 * windowed-error shed controller (serve/shed.hpp). While the server
 * is degraded, workers skip the MPC governor and step sessions at the
 * paper's fail-safe configuration, so the queue drains at near-zero
 * decision cost instead of growing unboundedly; shed transitions and
 * degraded decisions are counted in telemetry and marked in
 * DecisionRecord provenance.
 *
 * Server metrics (queue depth, decision latency, rejected requests,
 * shed counters) accumulate in an owned telemetry::Registry.
 *
 * runFleet() is the deterministic driver used by the CLI, the golden
 * trace test and the benchmark: it creates N sessions (round-robin
 * over the requested applications, each optionally perturbed by its
 * own per-session RNG stream), keeps exactly one request per
 * unfinished session in flight (a worker finishing a step re-enqueues
 * that session's next one), and gathers the trace in (session, run,
 * index) order. Because sessions are isolated, predictions are pure
 * per row, and the gather order is fixed, the trace is byte-identical
 * at any --jobs *and any --shards* count (with shedding off; a
 * degraded step depends on real queue depths, i.e. on time).
 */

#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep.hpp"
#include "online/learner.hpp"
#include "powercap/arbiter.hpp"
#include "serve/request_queue.hpp"
#include "serve/session_manager.hpp"
#include "serve/shed.hpp"
#include "trace/decision.hpp"

namespace gpupm::serve {

struct FleetServerOptions
{
    /** Worker threads draining the queue; 0 = hardware concurrency. */
    std::size_t jobs = 1;
    /** SessionManager shards (tenant-hash keyed). */
    std::size_t shards = 1;
    /** Server-wide request-queue bound (admission backpressure). */
    std::size_t queueCapacity = 1024;
    /** Per-shard session cap (total capacity = shards * maxSessions). */
    SessionManagerOptions sessions;
    /** Server-wide overload policy; disabled by default. */
    ShedOptions shed;
    /**
     * Default hardware model for sessions without their own override
     * (SessionOptions::model / the Open frame's model name); null
     * resolves to the catalog's "paper-apu".
     */
    hw::HardwareModelPtr model;
    /**
     * Hot-swap publication point for online learning; null = static
     * forests. When set, the predictor handed to the server must be
     * the handle's generation-0 (baseline) Random Forest; each call
     * into a session's kernel memo serves the generation it acquires,
     * and the memo's tables are generation-keyed. Must outlive the
     * server.
     */
    const ml::ForestHandle *forestHandle = nullptr;
    /**
     * Fleet power-cap arbitration; disabled unless
     * powercap.budgetWatts > 0. Sessions register their baseline
     * demand at creation, enforce their working cap on every decision
     * and feed measured power back into the arbiter's violation
     * windows. Deterministic by default; see powercap/arbiter.hpp.
     */
    powercap::ArbiterOptions powercap;
};

/** One decision request: step session once, then call back. */
struct DecisionRequest
{
    SessionId session = 0;
    /**
     * Invoked on the worker after the step; the record pointer is null
     * when the session no longer exists (evicted or unknown) or has
     * already finished.
     */
    std::function<void(SessionId, const DecisionRecord *)> onDone;
    /** Stamped by submit/trySubmit for latency accounting. */
    std::chrono::steady_clock::time_point submitted{};
};

class FleetServer
{
  public:
    FleetServer(std::shared_ptr<const ml::PerfPowerPredictor> predictor,
                const FleetServerOptions &opts = {});
    ~FleetServer();

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    /**
     * Allocate a global session id and create the session on its home
     * shard. Creation order fixes identity: the k-th createSession
     * call returns the same id at any shard count.
     */
    SessionId createSession(const workload::Application &app,
                            const SessionOptions &opts = {});

    std::size_t shardCount() const { return _shards.size(); }

    /** The home shard of @p id (pure tenant-hash routing). */
    std::size_t shardOf(SessionId id) const
    {
        return exec::mix64(id) % _shards.size();
    }

    /** Single-shard convenience accessor; fatal when shards > 1. */
    SessionManager &sessions();

    /** Shard @p shard's session manager. */
    SessionManager &shardSessions(std::size_t shard)
    {
        return *_shards.at(shard).sessions;
    }

    /**
     * Non-blocking admission; false (and a rejected-request count) when
     * the queue is full or the server is stopped.
     */
    bool trySubmit(DecisionRequest req);

    /** Blocking admission; false only when the server is stopped. */
    bool submit(DecisionRequest req);

    /** Close admission, drain queued requests, join workers. */
    void stop();

    /** Requests queued and not yet taken by a worker. */
    std::size_t queueDepth() const { return _queue.depth(); }
    std::size_t rejectedRequests() const;

    telemetry::Registry &telemetry() { return *_telemetry; }
    telemetry::Snapshot metrics() const
    {
        return _telemetry->snapshot();
    }

    /** Fleet cap arbiter; null when no budget is configured. */
    powercap::FleetCapArbiter *capArbiter() { return _arbiter.get(); }
    const powercap::FleetCapArbiter *capArbiter() const
    {
        return _arbiter.get();
    }

  private:
    struct Shard
    {
        std::unique_ptr<SessionManager> sessions;
        /** Cap violations measured on this shard's sessions. */
        telemetry::Counter *capViolations = nullptr;
        /** Decisions this shard served with a finite cap enforced. */
        telemetry::Counter *cappedDecisions = nullptr;
    };

    void process(const DecisionRequest &req);

    FleetServerOptions _opts;
    std::unique_ptr<telemetry::Registry> _telemetry;
    /** Declared before the shards: sessions unregister on eviction. */
    std::unique_ptr<powercap::FleetCapArbiter> _arbiter;
    std::vector<Shard> _shards;
    RequestQueue<DecisionRequest> _queue;
    ShedController _shed;
    std::atomic<SessionId> _nextId{1};
    bool _stopped = false;

    telemetry::Counter *_decisions = nullptr;
    telemetry::Counter *_rejected = nullptr;
    telemetry::Counter *_lost = nullptr;
    telemetry::Counter *_shedDegraded = nullptr;
    telemetry::Histogram *_depthHist = nullptr;
    telemetry::Histogram *_latencyHist = nullptr;
    /** Declared last: the workers use every member above. */
    std::vector<std::thread> _workers;
};

/** Fleet workload description for runFleet. */
struct FleetOptions
{
    FleetServerOptions server;
    SessionOptions session;
    /** Benchmark names, assigned round-robin; empty = full suite. */
    std::vector<std::string> apps;
    std::size_t sessionCount = 8;
    /**
     * When > 0, ignore `apps` and draw sessions round-robin from a
     * pool of synthetic random applications with up to this many
     * kernel launches each (workload::randomApplication; minimum 2).
     * This is what lets the 100k-session benchmark hold a massive
     * fleet without massive per-session baseline cost.
     */
    std::size_t syntheticKernels = 0;
    /**
     * Upper bound on per-session CPU-phase fractions; each session
     * draws its fraction from its own (seed, session-index) RNG stream,
     * so fleets are heterogeneous yet reproducible. 0 = back-to-back
     * kernels everywhere (the paper's worst case).
     */
    double cpuPhaseJitter = 0.0;
    std::uint64_t seed = 0x5eedULL;
    /**
     * Decision-provenance sink, installed on the server's telemetry
     * registry before any session is created; every session governor
     * then reports its records here. Null = no provenance capture.
     * Must outlive the runFleet call. With onlineLearn, the learner is
     * interposed: this sink still sees every record, unchanged.
     */
    trace::DecisionSink *decisionSink = nullptr;
    /**
     * Closed-loop online learning: wrap the fleet's Random Forest in a
     * ForestHandle and interpose an OnlineLearner in the provenance
     * path. Observe-only until drift sustains (see online::DriftOptions
     * in `online`), so a drift-free fleet is byte-identical to a static
     * one - the golden-trace test pins this. Requires an RF predictor.
     */
    bool onlineLearn = false;
    online::OnlineOptions online;
    /**
     * Priority weights for SplitPolicy::PriorityWeighted, cycled over
     * sessions in creation order; empty = weight 1.0 everywhere.
     * Ignored unless server.powercap is enabled.
     */
    std::vector<double> capWeights;
    /**
     * Hardware-model catalog names, cycled over sessions in creation
     * order (a heterogeneous fleet); empty = the server default for
     * every session. Unknown names are fatal with the candidate list.
     */
    std::vector<std::string> hwModels;
    /**
     * Per-session deadline slack factors, cycled over sessions in
     * creation order: a value > 0 gives that session a Deadline QoS
     * (run deadline = Turbo baseline * factor), 0 keeps the uniform
     * alpha objective, negative values are fatal. Empty = uniform
     * everywhere.
     */
    std::vector<double> deadlines;
};

struct FleetResult
{
    /** All decisions, ordered by (session, run, index). */
    std::vector<DecisionRecord> trace;
    telemetry::Snapshot metrics;
    std::size_t sessions = 0;
    std::size_t decisions = 0;
    /** Decisions served on the shed fast path (fail-safe config). */
    std::size_t degradedDecisions = 0;
    /** Decisions where the cap altered the choice (fail-safe swap). */
    std::size_t capLimitedDecisions = 0;
    /** Measured-power-over-cap decisions (arbiter violation count). */
    std::uint64_t capViolations = 0;
    /** Arbiter re-split ticks over the run. */
    std::uint64_t arbiterTicks = 0;
    double wallSeconds = 0.0;
    double decisionsPerSecond = 0.0;
    /** Online-learning outcome (zeros when onlineLearn was off). */
    online::OnlineStats online{};
    /** Forest generation serving when the fleet finished. */
    std::uint64_t forestGeneration = 0;
    /** Sessions per hardware-model name (catalog name, resolved). */
    std::map<std::string, std::size_t> sessionsPerModel;
    /** Completed runs that missed their deadline QoS, fleet-wide. */
    std::size_t deadlineMisses = 0;
};

/** Run a fleet to completion; see the file comment for determinism. */
FleetResult
runFleet(std::shared_ptr<const ml::PerfPowerPredictor> predictor,
         const FleetOptions &opts);

/**
 * Serialize a fleet trace as JSON lines with %.17g floats: equal traces
 * produce byte-identical text (the golden-trace contract). Degraded
 * (shed) decisions carry an extra "dg":1 key, capped decisions an
 * extra "cap" (plus "cl":1 when the cap altered the choice), records
 * of a non-default hardware model an extra "hw":"<name>", and a run's
 * last record an extra "dm":1 when its deadline QoS was missed;
 * records of a normal uncapped homogeneous paper-apu fleet serialize
 * exactly as they did before shedding, capping or the catalog existed,
 * which is what keeps the golden trace stable.
 */
std::string serializeFleetTrace(const std::vector<DecisionRecord> &trace);

} // namespace gpupm::serve
