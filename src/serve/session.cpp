#include "serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hpp"
#include "policy/turbo_core.hpp"
#include "trace/trace.hpp"

namespace gpupm::serve {

Session::Session(SessionId id, workload::Application app,
                 std::shared_ptr<const ml::PerfPowerPredictor> base,
                 const ml::ForestHandle *handle,
                 const SessionOptions &opts, hw::HardwareModelPtr model,
                 telemetry::Registry *telemetry,
                 powercap::FleetCapArbiter *arbiter)
    : _id(id), _app(std::move(app)), _opts(opts),
      _model(std::move(model)), _telemetry(telemetry),
      _arbiter(arbiter), _thermalCap(opts.thermalCap),
      _apu(_model->params())
{
    GPUPM_ASSERT(_model != nullptr, "session needs a hardware model");
    GPUPM_ASSERT(!_app.trace.empty(), "session application '", _app.name,
                 "' has an empty trace");

    // The MPC performance target is the Turbo Core baseline throughput
    // (paper Sec. V-B), measured once at session creation on this
    // session's own hardware model. A deadline QoS lowers the target by
    // its slack factor: the governor is allowed to spend the deadline
    // headroom on energy savings instead of matching Turbo exactly.
    sim::Simulator sim(_model);
    policy::TurboCoreGovernor turbo(_model);
    const auto baseline = sim.run(_app, turbo);
    GPUPM_ASSERT(baseline.throughput() > 0.0,
                 "baseline produced no throughput");
    _target = _opts.mpc.qos.scaleTarget(baseline.throughput());
    _baselineTime = baseline.totalTime();
    // The baseline's mean chip power is the session's demand signal for
    // usage-proportional budget splits: a registration-time constant, so
    // shares depend only on the fleet's composition, never on execution
    // order (the determinism contract in powercap/arbiter.hpp).
    _baselinePower = baseline.totalTime() > 0.0
                         ? baseline.totalEnergy() / baseline.totalTime()
                         : 0.0;
    if (_arbiter != nullptr) {
        _capSlot = _arbiter->registerSession(_id, _baselinePower,
                                             _opts.capWeight,
                                             _model->capFloorWatts());
    }
    if (_telemetry) {
        _telemetry
            ->counter("serve.model." + _model->name() + ".sessions")
            .add(1);
        _memoHits = &_telemetry->counter("serve.cache_hit_queries");
        _memoMisses = &_telemetry->counter("serve.cache_miss_queries");
        _memoEvictions = &_telemetry->counter("serve.kernel_evictions");
    }

    // The session's kernel memo serves the hot-swap handle's current
    // generation under online learning and the shared forest
    // otherwise. Oracle-family predictors consult ground truth, so
    // counters are not a safe key for them: they are used as given.
    auto rf =
        std::dynamic_pointer_cast<const ml::RandomForestPredictor>(base);
    if (handle) {
        _memo = std::make_shared<ml::KernelMemo>(*handle, _model,
                                                 _opts.kernelCacheCap);
    } else if (rf) {
        _memo = std::make_shared<ml::KernelMemo>(std::move(rf), _model,
                                                 _opts.kernelCacheCap);
    }
    _predictor = _memo ? _memo : std::move(base);
    GPUPM_ASSERT(_predictor != nullptr, "session needs a predictor");

    reset();
}

Session::~Session()
{
    if (_arbiter != nullptr && _capSlot != nullptr)
        _arbiter->unregisterSession(_capSlot);
}

void
Session::reset()
{
    if (_memo)
        _memo->clear();
    _governor = std::make_unique<mpc::MpcGovernor>(_predictor, _opts.mpc,
                                                   _model);
    _governor->setDecisionCallback(
        [this](const mpc::DecisionEvent &e) { _lastEvent = e; });
    if (_telemetry)
        _governor->setDecisionSink(_telemetry->decisionSink(), _id);
    _run = 0;
    _invocation = 0;
    _decisions = 0;
    _current = {};
    _runs.clear();
    _platformConfig.reset();
    _thermalCap.reset();
    _apu.reset();
}

void
Session::publishMemoStats()
{
    const auto &s = _memo->stats();
    if (s.hitQueries != _memoPublished.hitQueries)
        _memoHits->add(s.hitQueries - _memoPublished.hitQueries);
    if (s.missQueries != _memoPublished.missQueries)
        _memoMisses->add(s.missQueries - _memoPublished.missQueries);
    if (s.evictions != _memoPublished.evictions)
        _memoEvictions->add(s.evictions - _memoPublished.evictions);
    _memoPublished = s;
}

void
Session::beginRun()
{
    // Same per-run semantics as Simulator::run: fresh thermal state and
    // platform DVFS state (re-executions start from a cold platform).
    _apu.reset();
    _platformConfig.reset();
    _governor->beginRun(_app.name, _target);
    _current = {};
    _current.appName = _app.name;
    _current.governorName = _governor->name();
}

DecisionRecord
Session::step(bool degraded)
{
    GPUPM_ASSERT(!finished(), "step() on a finished session");
    trace::Span span(trace::Category::Serve, "serve.step", "session",
                     static_cast<double>(_id));
    if (_invocation == 0)
        beginRun();

    // The body below mirrors Simulator::run for one invocation; see
    // sim/simulator.cpp for the rationale of each charge.
    const std::size_t i = _invocation;
    const auto &inv = _app.trace[i];

    // Effective cap for this step: the arbiter's per-session share
    // clamped by the thermal ceiling. Read once so the decision, the
    // violation accounting and the trace all see the same number even
    // if the arbiter re-splits concurrently.
    Watts enforced_cap = std::numeric_limits<Watts>::infinity();
    if (_capSlot != nullptr)
        enforced_cap = _capSlot->cap();
    enforced_cap = _thermalCap.clamp(enforced_cap);
    _governor->setPowerCap(enforced_cap);

    _lastEvent = {};
    sim::Decision decision;
    if (degraded) {
        // Shed fast path: this model's fail-safe configuration at zero
        // decision overhead, no governor involvement. The governor is
        // also not shown the observation - it never decided here, and
        // feeding it fail-safe outcomes would poison its tracker
        // state for the post-recovery decisions.
        decision = {_model->failSafe(), 0.0};
    } else {
        decision = _governor->decide(i);
    }
    GPUPM_ASSERT(decision.overheadTime >= 0.0,
                 "negative decision overhead");

    // This invocation's charges; only their totals outlive the step.
    sim::KernelRecord rec;
    rec.tag = inv.tag;
    rec.config = decision.config;

    rec.cpuPhaseTime = inv.cpuPhaseSeconds;
    rec.hiddenOverheadTime =
        std::min(decision.overheadTime, rec.cpuPhaseTime);
    rec.overheadTime = decision.overheadTime - rec.hiddenOverheadTime;

    if (rec.cpuPhaseTime > 0.0) {
        const auto phase = _apu.runHost(rec.cpuPhaseTime,
                                        _model->maxPerformance());
        rec.cpuPhaseCpuEnergy = phase.cpuEnergy;
        rec.cpuPhaseGpuEnergy = phase.gpuEnergy;
    }
    if (decision.overheadTime > 0.0) {
        const auto host = _apu.runHost(decision.overheadTime,
                                       kernel::Apu::governorHostConfig());
        rec.overheadCpuEnergy = host.cpuEnergy;
        rec.overheadGpuEnergy = host.gpuEnergy;
    }

    if (_platformConfig && *_platformConfig != decision.config) {
        const auto sw =
            _apu.reconfigure(*_platformConfig, decision.config);
        rec.transitionTime = sw.time;
        rec.transitionCpuEnergy = sw.cpuEnergy;
        rec.transitionGpuEnergy = sw.gpuEnergy;
    }
    _platformConfig = decision.config;

    const auto m = _apu.run(inv.params, decision.config);
    rec.kernelTime = m.time;
    rec.kernelCpuEnergy = m.cpuEnergy;
    rec.kernelGpuEnergy = m.gpuEnergy;
    rec.instructions = m.instructions;

    if (!degraded) {
        sim::Observation obs;
        obs.index = i;
        obs.tag = inv.tag;
        obs.measurement = m;
        obs.kernelTruth = &inv.params;
        obs.nonKernelTime =
            rec.overheadTime + rec.cpuPhaseTime + rec.transitionTime;
        _governor->observe(obs);
    } else if (_telemetry) {
        // The governor was bypassed, so provenance is emitted here:
        // tag 'S' records that this invocation was shed to the
        // fail-safe configuration with no candidate evaluation.
        if (auto *sink = _telemetry->decisionSink()) {
            trace::DecisionRecord dr;
            dr.app = _app.name;
            dr.session = _id;
            dr.run = _run;
            dr.index = i;
            dr.tag = 'S';
            dr.configIndex = hw::denseConfigIndex(decision.config);
            dr.observed = true;
            dr.measuredTime = m.time;
            dr.measuredGpuPower =
                m.time > 0.0 ? m.gpuEnergy / m.time : 0.0;
            dr.measuredInstructions = m.instructions;
            dr.nonKernelTime = rec.cpuPhaseTime + rec.transitionTime;
            dr.targetThroughput = _target;
            sink->record(std::move(dr));
        }
    }

    DecisionRecord out;
    out.session = _id;
    out.run = _run;
    out.index = i;
    out.tag = rec.tag;
    out.configIndex = hw::denseConfigIndex(rec.config);
    out.kernelTime = rec.kernelTime;
    out.overheadTime = rec.overheadTime;
    out.cpuEnergy = rec.kernelCpuEnergy + rec.overheadCpuEnergy +
                    rec.cpuPhaseCpuEnergy + rec.transitionCpuEnergy;
    out.gpuEnergy = rec.kernelGpuEnergy + rec.overheadGpuEnergy +
                    rec.cpuPhaseGpuEnergy + rec.transitionGpuEnergy;
    out.evaluations = _lastEvent.evaluations;
    out.degraded = degraded;
    if (_model->name() != hw::paperApuName)
        out.hwModel = _model->name();

    // Powercap accounting: measured average chip power over this
    // step's wall time feeds the arbiter's violation windows, and the
    // thermal governor reacts to the die temperature the step left
    // behind. Both advance strictly in the session's own decision
    // stream, which is what keeps capped fleet runs deterministic.
    const Seconds wall = rec.kernelTime + rec.cpuPhaseTime +
                         rec.overheadTime + rec.transitionTime;
    out.measuredPower =
        wall > 0.0 ? (out.cpuEnergy + out.gpuEnergy) / wall : 0.0;
    if (std::isfinite(enforced_cap)) {
        out.cap = enforced_cap;
        out.capLimited = !degraded && _lastEvent.capLimited;
    }
    if (_capSlot != nullptr)
        _arbiter->report(_capSlot, out.measuredPower, enforced_cap);
    _thermalCap.update(_apu.thermal().temperature());
    if (_memo && _telemetry)
        publishMemoStats();

    _current.kernelTime += rec.kernelTime;
    _current.overheadTime += rec.overheadTime;
    _current.cpuPhaseTime += rec.cpuPhaseTime;
    _current.transitionTime += rec.transitionTime;
    _current.cpuEnergy += out.cpuEnergy;
    _current.gpuEnergy += out.gpuEnergy;
    _current.overheadEnergy +=
        rec.overheadCpuEnergy + rec.overheadGpuEnergy;
    _current.instructions += rec.instructions;

    ++_decisions;
    ++_invocation;
    if (_invocation >= _app.trace.size()) {
        // Deadline QoS: a run misses when its wall time exceeds the
        // Turbo baseline stretched by the slack factor. Checked at run
        // completion so the miss marks the run's last record.
        if (_opts.mpc.qos.kind == mpc::QosSpec::Kind::Deadline &&
            _current.totalTime() >
                _baselineTime * _opts.mpc.qos.deadlineFactor) {
            ++_deadlineMisses;
            out.deadlineMissed = true;
            if (_telemetry)
                _telemetry->counter("serve.deadline_misses").add(1);
        }
        _runs.push_back(std::move(_current));
        _current = {};
        _invocation = 0;
        ++_run;
    }
    return out;
}

} // namespace gpupm::serve
