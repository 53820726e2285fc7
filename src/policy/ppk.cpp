#include "policy/ppk.hpp"

#include <limits>
#include <vector>

#include "common/logging.hpp"
#include "ml/kernel_memo.hpp"

namespace gpupm::policy {

PpkGovernor::PpkGovernor(
    std::shared_ptr<const ml::PerfPowerPredictor> predictor,
    const PpkOptions &opts, hw::HardwareModelPtr model)
    : _predictor(ml::KernelMemo::wrap(std::move(predictor), model)),
      _opts(opts),
      _model(std::move(model)), _energy(_model->params()),
      _ownedSpace(opts.searchSpace
                      ? std::optional<hw::ConfigSpace>(
                            hw::ConfigSpace(*opts.searchSpace))
                      : std::nullopt),
      _space(_ownedSpace ? *_ownedSpace : _model->space())
{
    GPUPM_ASSERT(_predictor != nullptr, "PPK needs a predictor");
}

void
PpkGovernor::beginRun(const std::string &, Throughput target)
{
    _target = target;
    _cumInsts = 0.0;
    _cumTime = 0.0;
    _lastEvals = 0;
    _last.reset();
}

sim::Decision
PpkGovernor::decide(std::size_t)
{
    // First kernel: no counters yet, fall back to the fail-safe
    // configuration (paper Sec. V-B).
    if (!_last) {
        _lastEvals = 0;
        sim::Decision d{_model->failSafe(), 0.0};
        return d;
    }

    ml::PredictionQuery q;
    q.counters = _last->counters;
    q.instructions = _last->instructions;
    q.groundTruth = _last->truth;

    const hw::HwConfig *best = nullptr;
    double best_energy = std::numeric_limits<double>::infinity();

    // One batched sweep over the space: the predictor walks each tree
    // once for all 336 candidates instead of once per candidate.
    const auto &cfgs = _space.all();
    thread_local std::vector<ml::EnergyEstimate> ests;
    ests.resize(cfgs.size());
    _energy.estimateBatch(*_predictor, q, cfgs, ests);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const auto &est = ests[i];
        // Eq. 2/4: cumulative throughput including the predicted next
        // kernel must stay at or above the target.
        const double projected =
            (_cumInsts + q.instructions) / (_cumTime + est.time);
        if (_target > 0.0 && projected < _target)
            continue;
        if (est.energy < best_energy) {
            best_energy = est.energy;
            best = &cfgs[i];
        }
    }
    _lastEvals = _space.size();

    // When no configuration is predicted to meet the target, default to
    // the fail-safe configuration (Sec. IV-A1a): near-maximal GPU
    // performance with the busy-waiting CPU kept low.
    const hw::HwConfig chosen = best ? *best : _model->failSafe();

    sim::Decision d;
    d.config = chosen;
    d.overheadTime =
        _opts.chargeOverhead ? _opts.overhead.cost(_lastEvals) : 0.0;
    return d;
}

void
PpkGovernor::observe(const sim::Observation &obs)
{
    _cumInsts += obs.measurement.instructions;
    _cumTime += obs.measurement.time + obs.nonKernelTime;
    _last = LastKernel{obs.measurement.counters,
                       obs.measurement.instructions, obs.kernelTruth};
}

} // namespace gpupm::policy
