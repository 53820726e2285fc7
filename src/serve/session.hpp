/**
 * @file
 * One fleet session: a governed application, steppable one kernel
 * invocation at a time.
 *
 * A session owns everything one tenant of the fleet server needs: its
 * application trace, its modeled APU (thermal state and platform DVFS
 * config advance within a run), its MpcGovernor (pattern extractor,
 * performance tracker, hill-climb optimizer), and its kernel memo
 * (ml::KernelMemo: per-kernel prediction tables in front of the shared
 * forests, built with the session's cap, hardware model and hot-swap
 * handle, whose counts it publishes to telemetry after every step).
 * Nothing is shared mutably between sessions except telemetry
 * (internally synchronized), so sessions are isolated: one session's
 * decisions are bit-identical regardless of what other sessions run -
 * the foundation of the deterministic fleet mode.
 *
 * step() executes exactly one invocation of the Simulator::run loop
 * body - decide, charge host phase and overhead, reconfigure, run the
 * kernel, observe - so a server can interleave many sessions at
 * single-decision granularity. A session plays the paper's repeated-
 * execution schedule: one PPK profiling run, then optimizedRuns MPC
 * runs, with the same fresh-APU-per-run semantics as Simulator::run.
 *
 * Not thread-safe: the server checks a session out to one worker at a
 * time.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "kernel/apu.hpp"
#include "ml/kernel_memo.hpp"
#include "mpc/governor.hpp"
#include "powercap/arbiter.hpp"
#include "powercap/thermal_governor.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace.hpp"

namespace gpupm::serve {

using SessionId = std::uint64_t;

struct SessionOptions
{
    /** Governor options; mpc.qos carries the session's QoS objective
     *  (uniform alpha, or a deadline with slack-driven headroom). */
    mpc::MpcOptions mpc;
    /** MPC-optimized runs after the PPK profiling run. */
    std::size_t optimizedRuns = 2;
    /** LRU cap on the session's kernel memo; 0 = passthrough. */
    std::size_t kernelCacheCap = ml::KernelMemo::defaultCap;
    /** Priority weight for the arbiter's weighted split policy. */
    double capWeight = 1.0;
    /** Reactive thermal cap governor (disabled by default). */
    powercap::ThermalCapOptions thermalCap;
    /**
     * Hardware-model override for this session; null falls back to the
     * manager/server default. Heterogeneous fleets set this per
     * session (from the Open frame's model name over the wire).
     */
    hw::HardwareModelPtr model;
};

/** One decision's outcome, the unit of the fleet trace. */
struct DecisionRecord
{
    SessionId session = 0;
    std::size_t run = 0;   ///< 0 = profiling, 1.. = optimized.
    std::size_t index = 0; ///< Invocation index within the run.
    char tag = 'A';
    std::size_t configIndex = 0; ///< hw::denseConfigIndex of the choice.
    Seconds kernelTime = 0.0;
    Seconds overheadTime = 0.0; ///< Exposed decision latency.
    Joules cpuEnergy = 0.0;     ///< All components of this invocation.
    Joules gpuEnergy = 0.0;
    /** Predictor evaluations the decision charged (DecisionEvent). */
    std::size_t evaluations = 0;
    /** Shed fast path: the governor was bypassed for this step. */
    bool degraded = false;
    /** Power cap enforced for this step; < 0 when uncapped. */
    Watts cap = -1.0;
    /** The cap altered the decision (fail-safe substitution). */
    bool capLimited = false;
    /** Measured average chip power over this step's wall time. */
    Watts measuredPower = 0.0;
    /**
     * Hardware-model name; empty for the default "paper-apu" (records
     * of a homogeneous default fleet serialize exactly as before the
     * catalog existed).
     */
    std::string hwModel;
    /** Set on a run's last record when its deadline QoS was missed. */
    bool deadlineMissed = false;
};

class Session
{
  public:
    /**
     * @param id Server-assigned identity, stamped into records.
     * @param app Application trace (the Turbo Core baseline run that
     *        sets the MPC performance target happens here, once).
     * @param base Shared predictor backing the session's governor; a
     *        Random Forest is served through the session's kernel
     *        memo, any other predictor as given.
     * @param handle Hot-swap publication point for online learning;
     *        null = static forests. When set, the memo serves the
     *        handle's current generation instead of @p base.
     * @param model Hardware model this session runs on (explicit; a
     *        heterogeneous fleet mixes models across sessions).
     * @param telemetry Registry for memo metrics; may be null.
     * @param arbiter Fleet cap arbiter; null = no fleet budget. The
     *        session registers itself with its Turbo-baseline mean
     *        power as demand, its model's capFloorWatts as floor, and
     *        unregisters on destruction.
     */
    Session(SessionId id, workload::Application app,
            std::shared_ptr<const ml::PerfPowerPredictor> base,
            const ml::ForestHandle *handle,
            const SessionOptions &opts, hw::HardwareModelPtr model,
            telemetry::Registry *telemetry = nullptr,
            powercap::FleetCapArbiter *arbiter = nullptr);

    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    SessionId id() const { return _id; }
    const std::string &appName() const { return _app.name; }
    Throughput target() const { return _target; }

    /** The hardware model this session runs on. */
    const hw::HardwareModelPtr &model() const { return _model; }

    /** Completed runs that exceeded the deadline QoS allowance. */
    std::size_t deadlineMisses() const { return _deadlineMisses; }

    /** Decisions per run (the trace length). */
    std::size_t runLength() const { return _app.trace.size(); }
    /** Total runs the session plays (1 profiling + optimizedRuns). */
    std::size_t totalRuns() const { return 1 + _opts.optimizedRuns; }
    std::size_t totalDecisions() const
    {
        return totalRuns() * runLength();
    }
    std::size_t decisionsMade() const { return _decisions; }
    bool finished() const { return _decisions >= totalDecisions(); }

    /**
     * Execute one kernel invocation (decide / charge / run / observe);
     * fatal when already finished.
     *
     * @param degraded Overload fast path: skip the MPC governor
     *        entirely and run the invocation at the paper's fail-safe
     *        configuration [P7, NB2, DPM4, 8CU] with zero decision
     *        overhead. The kernel still executes and all energy/time
     *        charges still accrue; the governor neither decides nor
     *        observes, so a server under shed pressure drains its
     *        queue at near-zero decision cost. Degraded steps are
     *        marked in the returned record and traced with tag 'S'.
     */
    DecisionRecord step(bool degraded = false);

    /**
     * Totals of completed runs, in run order: times, energies and
     * instructions. records stays empty: a session keeps nothing per
     * invocation (step() returns each invocation's DecisionRecord
     * instead), so it grows by one set of totals per run.
     */
    const std::vector<sim::RunResult> &completedRuns() const
    {
        return _runs;
    }

    /**
     * Discard all learned state (governor, prediction cache, run
     * progress); the session replays from its profiling run. The Turbo
     * baseline target is kept - it is a property of the app, not of
     * learning.
     */
    void reset();

    /** Turbo-baseline mean chip power (the arbiter's demand signal). */
    Watts baselinePower() const { return _baselinePower; }

    /** Arbiter cap slot (null when no arbiter is attached). */
    const powercap::SessionCap *capSlot() const { return _capSlot; }

    /** Thermal cap governor state (disabled unless configured). */
    const powercap::ThermalCapGovernor &thermalCap() const
    {
        return _thermalCap;
    }

  private:
    void beginRun();
    void publishMemoStats();

    SessionId _id;
    workload::Application _app;
    SessionOptions _opts;
    hw::HardwareModelPtr _model;
    telemetry::Registry *_telemetry;

    Throughput _target = 0.0;
    /** Turbo-baseline wall time (the deadline QoS reference). */
    Seconds _baselineTime = 0.0;
    std::size_t _deadlineMisses = 0;
    Watts _baselinePower = 0.0;
    powercap::FleetCapArbiter *_arbiter = nullptr;
    powercap::SessionCap *_capSlot = nullptr;
    powercap::ThermalCapGovernor _thermalCap;
    /** What the governor scores with: the memo, or a non-RF base. */
    std::shared_ptr<const ml::PerfPowerPredictor> _predictor;
    /** The session's kernel memo; null for a non-RF base. */
    std::shared_ptr<ml::KernelMemo> _memo;
    /** Memo counts already added to telemetry. */
    ml::KernelMemo::Stats _memoPublished;
    telemetry::Counter *_memoHits = nullptr;
    telemetry::Counter *_memoMisses = nullptr;
    telemetry::Counter *_memoEvictions = nullptr;
    std::unique_ptr<mpc::MpcGovernor> _governor;
    kernel::Apu _apu;
    std::optional<hw::HwConfig> _platformConfig;
    mpc::DecisionEvent _lastEvent;

    std::size_t _run = 0;
    std::size_t _invocation = 0;
    std::size_t _decisions = 0;
    sim::RunResult _current;
    std::vector<sim::RunResult> _runs;
};

} // namespace gpupm::serve
