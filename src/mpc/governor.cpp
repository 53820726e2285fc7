#include "mpc/governor.hpp"

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "common/logging.hpp"
#include "kernel/counters.hpp"
#include "ml/kernel_memo.hpp"
#include "trace/trace.hpp"

namespace gpupm::mpc {

namespace {

/** "No configuration found" sentinel for fallbackDecide's scan. */
constexpr std::size_t cfgsNone = static_cast<std::size_t>(-1);

} // namespace

MpcGovernor::MpcGovernor(
    std::shared_ptr<const ml::PerfPowerPredictor> predictor,
    const MpcOptions &opts, hw::HardwareModelPtr model)
    : _predictor(ml::KernelMemo::wrap(std::move(predictor), model)),
      _opts(opts),
      _model(std::move(model)), _energy(_model->params()),
      _ownedSpace(opts.searchSpace
                      ? std::optional<hw::ConfigSpace>(
                            hw::ConfigSpace(*opts.searchSpace))
                      : std::nullopt),
      _space(_ownedSpace ? *_ownedSpace : _model->space()),
      _climber(_space, _energy),
      _ppk(_predictor,
           policy::PpkOptions{opts.chargeOverhead, opts.overhead,
                              opts.searchSpace},
           _model)
{
    GPUPM_ASSERT(_predictor != nullptr, "MPC needs a predictor");
}

void
MpcGovernor::beginRun(const std::string &app_name, Throughput target)
{
    GPUPM_ASSERT(target > 0.0, "MPC needs a positive performance target");
    GPUPM_ASSERT(_appName.empty() || _appName == app_name,
                 "one MpcGovernor instance serves one application; got '",
                 app_name, "' after '", _appName, "'");
    _appName = app_name;
    _traceRunIndex = _runsBegun++;
    _tracePending = false;

    _pattern.beginRun();

    const bool was_profiling = !_optimizing;
    if (was_profiling && _pattern.hasLearnedSequence())
        finalizeProfile(target);

    _tracker.reset(target);
    if (_horizon.configured())
        _horizon.beginRun();
    _ppk.beginRun(app_name, target);
    _stats = {};
    _pendingCharged = 0.0;
    _pendingModeled = 0.0;
}

void
MpcGovernor::finalizeProfile(Throughput target)
{
    GPUPM_ASSERT(!_profile.empty(), "profiling produced no data");
    _n = _pattern.learnedSequenceLength();
    _searchOrder = buildSearchOrder(_profile, target);
    const double nbar = averageHorizonLength(_profile, target);
    const Seconds t_total_baseline = _profiledInsts / target;

    std::vector<Seconds> pace;
    if (!_opts.uniformPacing) {
        pace.reserve(_profile.size());
        for (const auto &pk : _profile)
            pace.push_back(pk.time);
    }
    _horizon.configure(_n, nbar, _tppk, t_total_baseline,
                       _opts.qos.alpha, std::move(pace));
    _optimizing = true;
}

std::size_t
MpcGovernor::horizonFor(std::size_t index)
{
    switch (_opts.horizonMode) {
      case HorizonMode::Adaptive:
        return _horizon.horizonFor(index);
      case HorizonMode::Full:
        return _n;
      case HorizonMode::Fixed:
        return _opts.fixedHorizon;
    }
    GPUPM_PANIC("bad horizon mode");
}

sim::Decision
MpcGovernor::decide(std::size_t index)
{
    trace::Span span(trace::Category::Mpc, "mpc.decide");
    if (_sink) {
        _traceRec = {};
        _traceRec.app = _appName;
        _traceRec.session = _traceSession;
        _traceRec.run = _traceRunIndex;
        _traceRec.index = index;
        _tracePending = true;
    }

    if (!_optimizing) {
        // Profiling execution: plain PPK while the pattern extractor
        // learns the application (Sec. V-B).
        auto d = _ppk.decide(index);
        _pendingCharged = d.overheadTime;
        _pendingModeled =
            _ppk.lastEvaluationCount() > 0
                ? _opts.overhead.cost(_ppk.lastEvaluationCount())
                : 0.0;
        _stats.overheadTime += d.overheadTime;
        _stats.evaluations += _ppk.lastEvaluationCount();
        _stats.uniqueEvaluations += _ppk.lastEvaluationCount();
        if (_onDecision) {
            _onDecision({index, 0, _ppk.lastEvaluationCount(),
                         _ppk.lastEvaluationCount(), true, d.config,
                         d.overheadTime});
        }
        if (_tracePending) {
            _traceRec.tag = 'P';
            _traceRec.profiling = true;
            _traceRec.evaluations = _ppk.lastEvaluationCount();
            _traceRec.uniqueEvaluations = _ppk.lastEvaluationCount();
            _traceRec.configIndex = hw::denseConfigIndex(d.config);
            _traceRec.overheadTime = d.overheadTime;
        }
        span.arg("evals",
                 static_cast<double>(_ppk.lastEvaluationCount()));
        return d;
    }

    const std::size_t evals_before = _stats.evaluations;
    const std::size_t unique_before = _stats.uniqueEvaluations;
    const std::size_t h = horizonFor(index);
    _stats.horizonSum += static_cast<double>(h);
    ++_stats.decisions;
    _capLimited = false;

    sim::Decision d;
    if (!_pattern.hasLearnedSequence()) {
        d = fallbackDecide();
    } else if (h == 0) {
        // Overhead budget exhausted: no model evaluations. Reuse the
        // configuration chosen the last time this kernel appeared, but
        // only while the run is on target - the tracker check is free,
        // and racing at the boost configuration when behind is what
        // keeps the total loss inside the alpha bound.
        const auto ids = _pattern.expectedWindow(index, 1);
        // Race configuration: boost the GPU side, keep the busy-waiting
        // CPU low (it only contributes launch latency).
        hw::HwConfig cfg = _model->race();
        if (std::isfinite(_powerCap) && !_tracker.onTarget()) {
            // A finite cap suppresses the race: with no evaluation
            // budget there is no way to prove the boost configuration
            // fits, so hold the fail-safe anchor instead of risking a
            // cap violation the arbiter would punish the whole session
            // for.
            cfg = _model->failSafe();
            _capLimited = true;
        }
        if (_tracker.onTarget()) {
            cfg = _model->failSafe();
            if (!ids.empty()) {
                const auto &rec = _pattern.record(ids[0]);
                if (rec.lastChosenConfig)
                    cfg = *rec.lastChosenConfig;
            }
        }
        d.config = cfg;
        d.overheadTime = 0.0;
        _pendingModeled = 0.0;
        if (_tracePending)
            _traceRec.tag = 'B';
    } else {
        d = optimizeWindow(index, h);
    }

    _pendingCharged = d.overheadTime;
    _stats.overheadTime += d.overheadTime;
    if (_onDecision) {
        _onDecision({index, h, _stats.evaluations - evals_before,
                     _stats.uniqueEvaluations - unique_before, false,
                     d.config, d.overheadTime, _capLimited});
    }
    if (_tracePending) {
        _traceRec.horizon = h;
        _traceRec.evaluations = _stats.evaluations - evals_before;
        _traceRec.uniqueEvaluations =
            _stats.uniqueEvaluations - unique_before;
        _traceRec.configIndex = hw::denseConfigIndex(d.config);
        _traceRec.overheadTime = d.overheadTime;
        if (std::isfinite(_powerCap)) {
            _traceRec.powerCap = _powerCap;
            _traceRec.capLimited = _capLimited;
        }
    }
    span.arg("horizon", static_cast<double>(h));
    span.arg("evals",
             static_cast<double>(_stats.evaluations - evals_before));
    return d;
}

sim::Decision
MpcGovernor::fallbackDecide()
{
    // Pattern unavailable (broken sequence): degrade gracefully to a
    // PPK-style exhaustive scan over the last observed kernel.
    const std::size_t store = _pattern.storeSize();
    if (store == 0) {
        _pendingModeled = 0.0;
        if (_tracePending)
            _traceRec.tag = 'F';
        return {_model->failSafe(), 0.0};
    }
    // The most recently observed kernel is the best "previous" guess.
    const auto &rec = _pattern.record(store - 1);

    ml::PredictionQuery q;
    q.counters = rec.counters;
    q.instructions = rec.instructions;
    q.groundTruth = rec.truth;

    const Seconds headroom = _tracker.headroom(rec.instructions);
    std::size_t best_i = cfgsNone, fastest_i = cfgsNone;
    std::size_t min_power_i = cfgsNone;
    double best_energy = std::numeric_limits<double>::infinity();
    double fastest_time = std::numeric_limits<double>::infinity();
    double min_power = std::numeric_limits<double>::infinity();

    // Batched exhaustive scan: one predictor sweep over the space.
    const auto &cfgs = _space.all();
    thread_local std::vector<ml::EnergyEstimate> ests;
    ests.resize(cfgs.size());
    _energy.estimateBatch(*_predictor, q, cfgs, ests);

    // Cap filtering mirrors the hill-climb's tiers: over-cap
    // configurations are excluded from both the energy winner and the
    // racer, and the minimum-predicted-power configuration is the
    // deterministic fail-safe when nothing fits (first index wins ties
    // since the scan order is fixed).
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const auto &est = ests[i];
        const double p = est.time > 0.0 ? est.energy / est.time : 0.0;
        if (p < min_power) {
            min_power = p;
            min_power_i = i;
        }
        if (p > _powerCap)
            continue;
        if (est.time < fastest_time) {
            fastest_time = est.time;
            fastest_i = i;
        }
        if (est.time <= headroom && est.energy < best_energy) {
            best_energy = est.energy;
            best_i = i;
        }
    }
    _stats.evaluations += _space.size();
    _stats.uniqueEvaluations += _space.size();
    _pendingModeled = _opts.overhead.cost(_space.size());

    std::size_t chosen_i = best_i != cfgsNone ? best_i : fastest_i;
    if (chosen_i == cfgsNone) {
        chosen_i = min_power_i;
        _capLimited = true;
    }
    sim::Decision d;
    d.config = cfgs[chosen_i];
    d.overheadTime = _opts.chargeOverhead ? _pendingModeled : 0.0;
    if (_tracePending) {
        _traceRec.tag = 'F';
        _traceRec.headroom = headroom;
        _traceRec.hasHeadroom = true;
        _traceRec.predictedTime = ests[chosen_i].time;
        _traceRec.predictedEnergy = ests[chosen_i].energy;
    }
    return d;
}

sim::Decision
MpcGovernor::optimizeWindow(std::size_t index, std::size_t horizon)
{
    const auto ids = _pattern.expectedWindow(index, horizon);
    if (ids.empty())
        return fallbackDecide();

    const auto order =
        windowSearchOrder(_searchOrder, index, ids.size());
    GPUPM_ASSERT(!order.empty(), "window search order is empty");

    // Planned cumulative state: actuals from the tracker, extended by
    // the expected time/instructions of window kernels as they are
    // optimized, so excess headroom carries across the window (Fig. 7).
    // Kernels not yet optimized are reserved at their stored (feedback-
    // updated) times: Eq. 3's throughput constraint spans the whole
    // window, so the slack one kernel may consume must account for what
    // the rest of the window is expected to need.
    InstCount planned_insts = _tracker.instructions();
    Seconds planned_time = _tracker.time();
    const Throughput target = _tracker.target();

    InstCount reserved_insts = 0.0;
    Seconds reserved_time = 0.0;
    for (const auto id : ids) {
        const auto &rec = _pattern.record(id);
        reserved_insts += rec.instructions;
        reserved_time += rec.time;
    }

    hw::HwConfig chosen = _model->failSafe();
    bool found_current = false;
    std::size_t window_evals = 0;
    std::size_t window_unique = 0;

    for (const auto inv : order) {
        GPUPM_ASSERT(inv >= index && inv < index + ids.size(),
                     "window order out of range");
        auto &rec = _pattern.mutableRecord(ids[inv - index]);

        ml::PredictionQuery q;
        q.counters = rec.counters;
        q.instructions = rec.instructions;
        q.groundTruth = rec.truth;

        // This kernel leaves the reservation and is optimized against
        // the window-wide budget.
        reserved_insts -= rec.instructions;
        reserved_time -= rec.time;

        const Seconds headroom =
            (planned_insts + rec.instructions + reserved_insts) / target -
            planned_time - reserved_time;
        // Candidate capture only for the kernel actually being decided;
        // lookahead kernels are re-optimized when their turn comes.
        std::vector<trace::CandidateEval> *cands =
            (_tracePending && inv == index) ? &_traceRec.candidates
                                           : nullptr;
        const auto res = _climber.optimize(*_predictor, q, headroom,
                                           _model->failSafe(), cands,
                                           _powerCap);
        window_evals += res.evaluations;
        window_unique += res.uniqueEvaluations;

        // When the target cannot be met the climber races from the
        // fail-safe anchor (Sec. IV-A1a) toward the fastest predicted
        // configuration; its result is used either way.
        const hw::HwConfig cfg = res.config;
        const Seconds expected_time = res.predictedTime;

        planned_insts += rec.instructions;
        planned_time += expected_time;
        rec.lastChosenConfig = cfg;

        if (inv == index) {
            chosen = cfg;
            found_current = true;
            _pendingExpectedTime = expected_time;
            if (!res.capOk)
                _capLimited = true;
            if (_tracePending) {
                _traceRec.tag = 'W';
                _traceRec.headroom = headroom;
                _traceRec.hasHeadroom = true;
                _traceRec.predictedTime = res.predictedTime;
                _traceRec.predictedEnergy = res.predictedEnergy;
            }
        }
    }
    GPUPM_ASSERT(found_current, "current kernel missing from window");

    _stats.evaluations += window_evals;
    _stats.uniqueEvaluations += window_unique;
    _pendingModeled = _opts.overhead.cost(window_evals);

    sim::Decision d;
    d.config = chosen;
    d.overheadTime = _opts.chargeOverhead ? _pendingModeled : 0.0;
    return d;
}

void
MpcGovernor::observe(const sim::Observation &obs)
{
    trace::Span span(trace::Category::Mpc, "mpc.observe");
    const auto &m = obs.measurement;
    _pattern.observe(m.counters, m.time, m.gpuPower, m.instructions,
                     obs.kernelTruth);

    // Feedback ablation: without feedback the tracker believes its own
    // predictions and never learns it is behind (or ahead of) target.
    const Seconds tracked_time =
        (!_opts.useFeedback && _optimizing && _pendingExpectedTime >= 0.0)
            ? _pendingExpectedTime
            : m.time;
    // obs.nonKernelTime covers host phases plus the *exposed* decision
    // latency, which is what actually hits the wall clock.
    _tracker.record(m.instructions, tracked_time + obs.nonKernelTime);
    if (_horizon.configured())
        _horizon.record(m.time, _pendingModeled);

    if (!_optimizing) {
        _ppk.observe(obs);
        _tppk += _pendingModeled;
        _profiledInsts += m.instructions;

        ProfiledKernel pk;
        pk.kernelThroughput =
            m.time > 0.0 ? m.instructions / m.time : 0.0;
        pk.cumulativeThroughput = _tracker.achievedThroughput();
        pk.time = m.time;
        _profile.push_back(pk);
    }

    if (_tracePending && _sink) {
        _traceRec.kernelSignature =
            std::hash<kernel::Signature>{}(kernel::signatureOf(m.counters));
        _traceRec.observed = true;
        _traceRec.measuredTime = m.time;
        _traceRec.measuredGpuPower = m.gpuPower;
        _traceRec.counters = m.counters;
        _traceRec.measuredInstructions = m.instructions;
        _traceRec.nonKernelTime = obs.nonKernelTime;
        _traceRec.targetThroughput = _tracker.target();
        if (_traceRec.predictedTime >= 0.0 && m.time > 0.0) {
            _traceRec.timeErrorPct =
                100.0 * (_traceRec.predictedTime - m.time) / m.time;
        }
        _sink->record(std::move(_traceRec));
    }
    _tracePending = false;

    _pendingCharged = 0.0;
    _pendingModeled = 0.0;
    _pendingExpectedTime = -1.0;
}

} // namespace gpupm::mpc
