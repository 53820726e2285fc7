#include "serve/session_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hpp"
#include "ml/features.hpp"

namespace gpupm::serve {

SessionPredictor::SessionPredictor(
    std::shared_ptr<const ml::PerfPowerPredictor> base,
    const online::ForestHandle *handle, hw::HardwareModelPtr model,
    const SessionPredictorOptions &opts, telemetry::Registry *telemetry)
    : _base(std::move(base)),
      _rf(dynamic_cast<const ml::RandomForestPredictor *>(_base.get())),
      _handle(handle), _model(std::move(model)),
      _cap(opts.kernelCacheCap)
{
    GPUPM_ASSERT(_base != nullptr, "session predictor needs a base");
    GPUPM_ASSERT(_model != nullptr,
                 "session predictor needs a hardware model");
    GPUPM_ASSERT(!_handle || _rf,
                 "hot-swap routing requires a Random Forest base");
    if (telemetry) {
        _hitQueries = &telemetry->counter("serve.cache_hit_queries");
        _missQueries = &telemetry->counter("serve.cache_miss_queries");
        _kernelEvictions = &telemetry->counter("serve.kernel_evictions");
    }
}

void
SessionPredictor::clearCache()
{
    _entries.clear();
}

ml::Prediction
SessionPredictor::predict(const ml::PredictionQuery &q,
                          const hw::HwConfig &c) const
{
    ml::Prediction p;
    predictBatch(q, std::span<const hw::HwConfig>(&c, 1),
                 std::span<ml::Prediction>(&p, 1));
    return p;
}

SessionPredictor::KernelEntry &
SessionPredictor::entryFor(const kernel::KernelCounters &counters) const
{
    // Linear scan over a small LRU set; caps are tens of kernels, and
    // the common case hits the most-recently-used entry on the first
    // memcmp (kernels relaunch in streaks).
    for (auto &e : _entries) {
        if (std::memcmp(&counters, &e.key, sizeof(e.key)) == 0) {
            e.lastUse = ++_clock;
            return e;
        }
    }
    if (_entries.size() >= _cap) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < _entries.size(); ++i) {
            if (_entries[i].lastUse < _entries[victim].lastUse)
                victim = i;
        }
        _entries.erase(_entries.begin() +
                       static_cast<std::ptrdiff_t>(victim));
        _evictions += 1;
        if (_kernelEvictions)
            _kernelEvictions->add();
    }
    KernelEntry e;
    e.key = counters;
    e.kf = ml::makeKernelFeatures(counters);
    e.proxy = ml::instructionProxy(counters);
    e.memo.resize(hw::denseConfigCount);
    e.known.assign(hw::denseConfigCount, 0);
    e.lastUse = ++_clock;
    _entries.push_back(std::move(e));
    return _entries.back();
}

void
SessionPredictor::predictBatch(const ml::PredictionQuery &q,
                               std::span<const hw::HwConfig> cs,
                               std::span<ml::Prediction> out) const
{
    GPUPM_ASSERT(out.size() == cs.size(),
                 "predictBatch output size mismatch");
    const std::size_t n = cs.size();
    if (n == 0)
        return;

    if (!accelerated()) {
        // Oracle-family base (ground truth is not a pure function of
        // the counters) or cache disabled: plain passthrough, to the
        // current generation under hot-swap.
        if (_handle)
            _handle->acquire()->predictor->predictBatch(q, cs, out);
        else
            _base->predictBatch(q, cs, out);
        return;
    }

    KernelEntry &e = entryFor(q.counters);

    // Under hot-swap, this whole call serves the generation acquired
    // here. Rebind the memo to it before serving from it: a stale memo
    // would replay the outgoing forests' values after a swap. Derived
    // kernel features and the instruction proxy are functions of the
    // counters alone - only the memoized forest outputs die.
    std::shared_ptr<const online::ForestGeneration> gen;
    if (_handle) {
        gen = _handle->acquire();
        if (e.generation != gen->ordinal) {
            std::fill(e.known.begin(), e.known.end(), 0);
            e.generation = gen->ordinal;
        }
    }

    // Serve memoized configs; collect the rest for one forest walk.
    std::vector<std::uint32_t> miss;
    for (std::size_t i = 0; i < n; ++i) {
        const auto di = hw::denseConfigIndex(cs[i]);
        if (e.known[di])
            out[i] = e.memo[di];
        else
            miss.push_back(static_cast<std::uint32_t>(i));
    }
    if (_hitQueries && miss.size() < n)
        _hitQueries->add(n - miss.size());
    if (miss.empty())
        return;
    if (_missQueries)
        _missQueries->add(miss.size());

    const std::size_t m = miss.size();
    std::vector<ml::FeatureVector> rows(m);
    std::vector<double> time_log(m), gpu_power(m);
    // Config descriptors come from the session's hardware model, so a
    // variant model's candidates are scored in its own feature scaling
    // (bit-identical to ml::configFeatures for the paper model).
    for (std::size_t j = 0; j < m; ++j) {
        rows[j] = ml::combineFeatures(
            e.kf, _model->descriptorAt(hw::denseConfigIndex(cs[miss[j]])));
    }
    const ml::RandomForestPredictor &forests =
        gen ? *gen->predictor : *_rf;
    forests.predictRows(rows, time_log, gpu_power);

    for (std::size_t j = 0; j < m; ++j) {
        const std::size_t i = miss[j];
        ml::Prediction p;
        // Same post-processing as RandomForestPredictor::predictBatch:
        // the time forest is trained on log(seconds per instruction).
        p.time = std::exp(time_log[j]) * e.proxy;
        p.gpuPower = gpu_power[j];
        out[i] = p;
        const auto di = hw::denseConfigIndex(cs[i]);
        e.memo[di] = p;
        e.known[di] = 1;
    }
}

} // namespace gpupm::serve
