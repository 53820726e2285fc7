#include "ml/kernel_memo.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hpp"
#include "ml/features.hpp"

namespace gpupm::ml {

KernelMemo::KernelMemo(std::shared_ptr<const RandomForestPredictor> forests,
                       hw::HardwareModelPtr model, std::size_t cap)
    : _forests(std::move(forests)), _model(std::move(model)), _cap(cap)
{
    GPUPM_ASSERT(_forests != nullptr, "kernel memo needs a forest");
    GPUPM_ASSERT(_model != nullptr, "kernel memo needs a hardware model");
}

KernelMemo::KernelMemo(const ForestHandle &handle,
                       hw::HardwareModelPtr model, std::size_t cap)
    : _handle(&handle), _model(std::move(model)), _cap(cap)
{
    GPUPM_ASSERT(_model != nullptr, "kernel memo needs a hardware model");
}

std::shared_ptr<const PerfPowerPredictor>
KernelMemo::wrap(std::shared_ptr<const PerfPowerPredictor> predictor,
                 const hw::HardwareModelPtr &model)
{
    if (auto rf = std::dynamic_pointer_cast<const RandomForestPredictor>(
            predictor))
        return std::make_shared<const KernelMemo>(std::move(rf), model);
    return predictor;
}

void
KernelMemo::clear()
{
    _entries.clear();
}

Prediction
KernelMemo::predict(const PredictionQuery &q, const hw::HwConfig &c) const
{
    Prediction p;
    predictBatch(q, std::span<const hw::HwConfig>(&c, 1),
                 std::span<Prediction>(&p, 1));
    return p;
}

KernelMemo::Entry &
KernelMemo::entryFor(const kernel::KernelCounters &counters) const
{
    // Linear scan over a small LRU set; caps are tens of kernels, and a
    // mismatching memcmp stops at the first differing counter byte.
    for (auto &e : _entries) {
        if (std::memcmp(&counters, &e.key, sizeof(e.key)) == 0) {
            e.lastUse = ++_clock;
            return e;
        }
    }
    Entry *e = nullptr;
    if (_entries.size() < _cap) {
        e = &_entries.emplace_back();
        e->memo.resize(hw::denseConfigCount);
        e->known.resize(hw::denseConfigCount, 0);
    } else {
        // Recycle the least-recently-used entry in place: its tables
        // keep their storage, so a full memo never allocates.
        e = &*std::min_element(_entries.begin(), _entries.end(),
                               [](const Entry &a, const Entry &b) {
                                   return a.lastUse < b.lastUse;
                               });
        std::fill(e->known.begin(), e->known.end(), 0);
        _stats.evictions += 1;
    }
    e->key = counters;
    e->kf = makeKernelFeatures(counters);
    e->proxy = instructionProxy(counters);
    e->lastUse = ++_clock;
    e->generation = 0;
    return *e;
}

void
KernelMemo::walk(const RandomForestPredictor &forests,
                 const KernelFeatures &kf, double proxy,
                 std::span<const hw::HwConfig> cs,
                 std::span<const std::uint32_t> idx,
                 std::span<Prediction> out, Entry *e) const
{
    // Rows are allocated per walk, not kept: a resident fleet session
    // would otherwise hold a full scan's rows (~43 KB) between misses.
    const std::size_t m = idx.size();
    std::vector<FeatureVector> rows(m);
    for (std::size_t j = 0; j < m; ++j) {
        rows[j] = combineFeatures(
            kf, _model->descriptorAt(hw::denseConfigIndex(cs[idx[j]])));
    }
    std::vector<double> walked(2 * m);
    const std::span time_log = std::span(walked).first(m);
    const std::span gpu_power = std::span(walked).last(m);
    forests.predictRows(rows, time_log, gpu_power);
    for (std::size_t j = 0; j < m; ++j) {
        // The time forest is trained on log(seconds per instruction);
        // scale back up by the counter-derived instruction proxy.
        const Prediction p{std::exp(time_log[j]) * proxy, gpu_power[j]};
        out[idx[j]] = p;
        if (e) {
            const auto di = hw::denseConfigIndex(cs[idx[j]]);
            e->memo[di] = p;
            e->known[di] = 1;
        }
    }
}

void
KernelMemo::predictBatch(const PredictionQuery &q,
                         std::span<const hw::HwConfig> cs,
                         std::span<Prediction> out) const
{
    GPUPM_ASSERT(out.size() == cs.size(),
                 "predictBatch output size mismatch");
    const std::size_t n = cs.size();
    if (n == 0)
        return;

    // Under hot-swap, this whole call serves the generation acquired
    // here.
    std::shared_ptr<const ForestGeneration> gen;
    if (_handle)
        gen = _handle->acquire();
    const RandomForestPredictor &forests =
        gen ? *gen->predictor : *_forests;

    if (_miss.size() < n)
        _miss.resize(n);
    if (_cap == 0) {
        for (std::size_t i = 0; i < n; ++i)
            _miss[i] = static_cast<std::uint32_t>(i);
        walk(forests, makeKernelFeatures(q.counters),
             instructionProxy(q.counters), cs,
             std::span(_miss.data(), n), out, nullptr);
        return;
    }

    Entry &e = entryFor(q.counters);
    // Rebind the table to the acquired generation before serving from
    // it: a stale table would replay the outgoing forests' values
    // after a swap. Derived kernel features and the instruction proxy
    // are functions of the counters alone - only the forest outputs
    // die.
    const std::uint64_t generation = gen ? gen->ordinal : 0;
    if (e.generation != generation) {
        std::fill(e.known.begin(), e.known.end(), 0);
        e.generation = generation;
    }

    const std::uint8_t *known = e.known.data();
    const Prediction *memo = e.memo.data();
    std::uint32_t *miss = _miss.data();
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto di = hw::denseConfigIndex(cs[i]);
        if (known[di])
            out[i] = memo[di];
        else
            miss[m++] = static_cast<std::uint32_t>(i);
    }
    _stats.hitQueries += n - m;
    _stats.missQueries += m;
    if (m > 0)
        walk(forests, e.kf, e.proxy, cs, std::span(miss, m), out, &e);
}

} // namespace gpupm::ml
