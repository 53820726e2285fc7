/**
 * @file
 * MPC-based power-management governor (paper Sec. IV, Fig. 6).
 *
 * The four components of the paper's framework come together here:
 *
 *  - the kernel pattern extractor predicts which kernels come next and
 *    serves their stored counters;
 *  - the performance tracker turns past actuals into time headroom
 *    (Eqs. 4/5);
 *  - the optimizer walks the horizon window in the search-order
 *    heuristic (Fig. 7) and greedily hill-climbs each kernel's
 *    configuration, carrying excess headroom across the window;
 *  - the adaptive horizon generator bounds the optimization overhead.
 *
 * On the first encounter with an application the governor runs PPK
 * while profiling (Sec. V-B); optimization starts from the second
 * execution, exactly as in the paper's amortization study (Fig. 11).
 */

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "hw/model.hpp"
#include "ml/energy.hpp"
#include "mpc/hill_climb.hpp"
#include "mpc/horizon.hpp"
#include "mpc/options.hpp"
#include "mpc/pattern_extractor.hpp"
#include "mpc/performance_tracker.hpp"
#include "mpc/search_order.hpp"
#include "policy/ppk.hpp"
#include "sim/governor.hpp"
#include "trace/decision.hpp"

namespace gpupm::mpc {

/** Per-run MPC statistics (Figs. 14/15). */
struct MpcRunStats
{
    Seconds overheadTime = 0.0; ///< Charged decision latency this run.
    double horizonSum = 0.0;
    std::size_t decisions = 0;
    /** Evaluation requests charged by the overhead model. */
    std::size_t evaluations = 0;
    /** Distinct predictor evaluations after hill-climb memoization. */
    std::size_t uniqueEvaluations = 0;

    /** Average horizon as a fraction of N. */
    double
    averageHorizonFraction(std::size_t n) const
    {
        if (decisions == 0 || n == 0)
            return 0.0;
        return horizonSum /
               (static_cast<double>(decisions) * static_cast<double>(n));
    }
};

/**
 * Per-decision event emitted to the decision callback. Run-cumulative
 * MpcRunStats cannot be reconstructed into per-decision costs by an
 * outside observer (decisions interleave with observes), so serving
 * integrations that want per-decision evaluation counts or latency
 * attribution subscribe here.
 */
struct DecisionEvent
{
    std::size_t index = 0;
    /** Optimization window length (0 while profiling or budget-out). */
    std::size_t horizon = 0;
    /** Evaluations charged by the overhead model for this decision. */
    std::size_t evaluations = 0;
    /** Distinct predictor evaluations after memoization. */
    std::size_t uniqueEvaluations = 0;
    bool profiling = false;
    hw::HwConfig config;
    Seconds overheadTime = 0.0;
    /**
     * The power cap altered this decision: no candidate fit under the
     * cap and the deterministic fail-safe was substituted, or the race
     * configuration was suppressed because a finite cap is active.
     * Always false with no cap set.
     */
    bool capLimited = false;
};

class MpcGovernor : public sim::Governor
{
  public:
    /**
     * @param predictor Performance/power predictor (not owned shared).
     *        A bare RandomForestPredictor is wrapped in the governor's
     *        own ml::KernelMemo, which the inner PPK shares; any other
     *        predictor (a memo already, an oracle) is used as given.
     * @param opts Options (QoS, horizon mode, overhead model).
     * @param model Hardware model governed: search space, fail-safe and
     *              race anchors, energy-model parameters.
     */
    MpcGovernor(std::shared_ptr<const ml::PerfPowerPredictor> predictor,
                const MpcOptions &opts, hw::HardwareModelPtr model);

    std::string name() const override { return "MPC"; }

    void beginRun(const std::string &app_name,
                  Throughput target) override;

    sim::Decision decide(std::size_t index) override;

    void observe(const sim::Observation &obs) override;

    /** Whether the governor is still in its PPK profiling run. */
    bool profiling() const { return !_optimizing; }

    /** Statistics of the run in progress (or just completed). */
    const MpcRunStats &runStats() const { return _stats; }

    /** N as learned from the profiling run (0 before). */
    std::size_t kernelCount() const { return _n; }

    const MpcOptions &options() const { return _opts; }

    /** The hardware model this governor drives. */
    const hw::HardwareModelPtr &model() const { return _model; }

    /**
     * Set the per-session power cap in watts; candidates whose
     * predicted average power exceeds it are filtered before
     * hill-climb selection (a deterministic minimum-power fail-safe
     * applies when nothing fits). Values <= 0 disable the cap. May be
     * called between decisions - the fleet arbiter re-splits caps as
     * measured power shifts.
     */
    void
    setPowerCap(Watts cap)
    {
        _powerCap = cap > 0.0 ? cap
                              : std::numeric_limits<Watts>::infinity();
    }

    /** Active power cap (infinity when uncapped). */
    Watts powerCap() const { return _powerCap; }

    /**
     * Subscribe to per-decision events (fired at the end of every
     * decide(), profiling included). Pass an empty function to
     * unsubscribe. The callback runs on the deciding thread.
     */
    void
    setDecisionCallback(std::function<void(const DecisionEvent &)> cb)
    {
        _onDecision = std::move(cb);
    }

    /**
     * Attach a decision-provenance sink (null to detach). Every
     * decide() then assembles a trace::DecisionRecord - inputs, scored
     * candidates, choice - which is completed with the measured outcome
     * in observe() and handed to the sink. Pure observation: decisions
     * are identical with or without a sink. The sink must outlive the
     * governor; @p session labels the records (fleet session id).
     */
    void
    setDecisionSink(trace::DecisionSink *sink, std::uint64_t session = 0)
    {
        _sink = sink;
        _traceSession = session;
    }

  private:
    sim::Decision fallbackDecide();
    sim::Decision optimizeWindow(std::size_t index, std::size_t horizon);
    std::size_t horizonFor(std::size_t index);
    void finalizeProfile(Throughput target);

    std::shared_ptr<const ml::PerfPowerPredictor> _predictor;
    MpcOptions _opts;
    hw::HardwareModelPtr _model;
    ml::EnergyModel _energy;
    /** Present only when opts.searchSpace overrides the model's. */
    std::optional<hw::ConfigSpace> _ownedSpace;
    const hw::ConfigSpace &_space;
    HillClimbOptimizer _climber;

    PatternExtractor _pattern;
    PerformanceTracker _tracker;
    AdaptiveHorizonGenerator _horizon;
    policy::PpkGovernor _ppk;

    // Profiling-run products.
    std::vector<ProfiledKernel> _profile;
    std::vector<std::size_t> _searchOrder;
    Seconds _tppk = 0.0;
    InstCount _profiledInsts = 0.0;
    std::size_t _n = 0;
    bool _optimizing = false;

    /** Per-session power cap (infinity = uncapped). */
    Watts _powerCap = std::numeric_limits<Watts>::infinity();
    /** Set by the decide paths when the cap altered the decision. */
    bool _capLimited = false;

    // Per-decision bookkeeping.
    Seconds _pendingCharged = 0.0;
    Seconds _pendingModeled = 0.0;
    /** Predicted time of the current kernel (feedback ablation). */
    Seconds _pendingExpectedTime = -1.0;
    MpcRunStats _stats;
    std::string _appName;
    std::function<void(const DecisionEvent &)> _onDecision;

    // Decision-provenance capture (null sink = no capture).
    trace::DecisionSink *_sink = nullptr;
    std::uint64_t _traceSession = 0;
    std::size_t _runsBegun = 0;
    std::size_t _traceRunIndex = 0;
    /** Record under construction between decide() and observe();
     *  meaningful only while _tracePending. */
    trace::DecisionRecord _traceRec;
    bool _tracePending = false;
};

} // namespace gpupm::mpc
