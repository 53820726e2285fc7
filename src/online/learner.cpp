#include "online/learner.hpp"

#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "hw/config.hpp"
#include "ml/features.hpp"
#include "trace/trace.hpp"

namespace gpupm::online {

OnlineLearner::OnlineLearner(ml::ForestHandle &handle,
                             const OnlineOptions &opts,
                             trace::DecisionSink *inner,
                             telemetry::Registry *telemetry)
    : _handle(handle), _opts(opts), _inner(inner),
      _detector(opts.drift)
{
    // The row ring needs at least one slot: maxRows >= minRows > 0.
    GPUPM_ASSERT(_opts.minRows > 0 && _opts.maxRows >= _opts.minRows,
                 "online row bounds must satisfy 0 < minRows <= maxRows");
    if (telemetry) {
        _ctrTriggers = &telemetry->counter("online.drift_triggers");
        _ctrRetrains = &telemetry->counter("online.retrains");
        _ctrSwaps = &telemetry->counter("online.swaps");
        _ctrSuppressed = &telemetry->counter("online.suppressed");
    }
    _rows.reserve(_opts.maxRows);
}

OnlineLearner::~OnlineLearner()
{
    drain();
}

void
OnlineLearner::drain()
{
    // Destroying the pool drains queued refits; a fresh pool is created
    // if another trigger fires later.
    std::unique_ptr<exec::ThreadPool> pool;
    {
        std::lock_guard lock(_mutex);
        pool = std::move(_pool);
    }
    pool.reset();
}

void
OnlineLearner::record(trace::DecisionRecord &&rec)
{
    // Observer first: the downstream sink (trace export) sees exactly
    // the record stream it would see without online learning.
    if (_inner) {
        trace::DecisionRecord copy = rec;
        _inner->record(std::move(copy));
    }

    std::lock_guard lock(_mutex);
    accumulateLocked(rec);
    const auto ev = _detector.observe(rec);
    _stats.observed = _detector.observedCount();
    if (ev)
        onTriggerLocked(*ev);
}

void
OnlineLearner::accumulateLocked(const trace::DecisionRecord &r)
{
    if (!r.observed || r.measuredTime <= 0.0 ||
        r.measuredGpuPower <= 0.0)
        return;
    const double proxy = ml::instructionProxy(r.counters);
    if (proxy <= 0.0)
        return;

    Row row;
    row.f = ml::makeFeatures(r.counters,
                             hw::denseConfigAt(r.configIndex));
    // Same targets the offline trainer fits: log(seconds per proxy
    // instruction) for time, Watts for GPU-plane power.
    row.timeTarget = std::log(r.measuredTime / proxy);
    row.powerTarget = r.measuredGpuPower;

    if (_rows.size() < _opts.maxRows) {
        _rows.push_back(row);
    } else {
        // Full: the newest row overwrites the oldest, which sits at
        // the ring's head; the next-oldest becomes the head.
        _rows[_head] = row;
        _head = (_head + 1) % _rows.size();
    }
    ++_stats.rows;
}

std::vector<OnlineLearner::Row>
OnlineLearner::rowsInArrivalOrderLocked() const
{
    std::vector<Row> rows;
    rows.reserve(_rows.size());
    const auto head = _rows.begin() + static_cast<std::ptrdiff_t>(_head);
    rows.insert(rows.end(), head, _rows.end());
    rows.insert(rows.end(), _rows.begin(), head);
    return rows;
}

void
OnlineLearner::onTriggerLocked(const DriftEvent &ev)
{
    ++_stats.triggers;
    if (_ctrTriggers)
        _ctrTriggers->add();
    trace::Tracer::emit(trace::Category::Online, "online.drift",
                        trace::Tracer::nowNs(), 0, "signature",
                        static_cast<double>(ev.signature), "mape",
                        ev.mapePct);

    if (_retrainInFlight || _rows.size() < _opts.minRows) {
        ++_stats.suppressed;
        if (_ctrSuppressed)
            _ctrSuppressed->add();
        return;
    }

    _retrainInFlight = true;
    ++_stats.retrains;
    if (_ctrRetrains)
        _ctrRetrains->add();

    std::vector<Row> snapshot = rowsInArrivalOrderLocked();
    const std::uint64_t ordinal = ev.ordinal;
    if (_opts.synchronous) {
        // Swap-at-a-known-record-boundary for tests and benches. The
        // sink mutex is already held by record(); retrain() touches no
        // learner state besides the completion bookkeeping below.
        retrain(ordinal, std::move(snapshot));
        ++_stats.swaps;
        if (_ctrSwaps)
            _ctrSwaps->add();
        _retrainInFlight = false;
        return;
    }
    if (!_pool)
        _pool = std::make_unique<exec::ThreadPool>(
            std::max<std::size_t>(1, _opts.retrainJobs));
    _pool->post([this, ordinal, rows = std::move(snapshot)]() mutable {
        retrain(ordinal, std::move(rows));
        std::lock_guard lock(_mutex);
        ++_stats.swaps;
        if (_ctrSwaps)
            _ctrSwaps->add();
        _retrainInFlight = false;
    });
}

/** Fit + publish only; completion bookkeeping is the caller's. */
void
OnlineLearner::retrain(std::uint64_t trigger_ordinal,
                       std::vector<Row> rows)
{
    trace::Span span(trace::Category::Online, "online.retrain", "rows",
                     static_cast<double>(rows.size()));

    ml::Dataset time_data, power_data;
    for (const Row &r : rows) {
        time_data.add(r.f, r.timeTarget);
        power_data.add(r.f, r.powerTarget);
    }

    ml::ForestOptions time_opts = _opts.forest;
    time_opts.jobs = 1; // fit serially on the learner's worker
    time_opts.seed = _opts.seed ^ (trigger_ordinal * 2);
    ml::ForestOptions power_opts = _opts.forest;
    power_opts.jobs = 1;
    power_opts.seed = _opts.seed ^ (trigger_ordinal * 2 + 1);

    ml::TrainedForests forests;
    forests.time.fit(time_data, time_opts);
    forests.power.fit(power_data, power_opts);

    // The generation serves from the compiled arenas alone; the fitted
    // forests go out of scope here.
    auto next = std::make_shared<const ml::RandomForestPredictor>(forests);
    const std::uint64_t gen = _handle.publish(std::move(next));
    trace::Tracer::emit(trace::Category::Online, "online.swap",
                        trace::Tracer::nowNs(), 0, "generation",
                        static_cast<double>(gen), "rows",
                        static_cast<double>(rows.size()));
}

OnlineStats
OnlineLearner::stats() const
{
    std::lock_guard lock(_mutex);
    return _stats;
}

} // namespace gpupm::online
