#include "ml/trainer.hpp"

#include <atomic>
#include <cmath>
#include <cstring>

#include "common/logging.hpp"
#include "exec/sweep.hpp"
#include "kernel/perf_model.hpp"
#include "trace/trace.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {

double
instructionProxy(const kernel::KernelCounters &c)
{
    return std::max(1.0, c.globalWorkSize * (c.valuInsts + c.vfetchInsts));
}

namespace {

std::uint64_t
nextPredictorInstanceId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

RandomForestPredictor::RandomForestPredictor(RandomForest time_forest,
                                             RandomForest power_forest,
                                             SimdMode simd)
    : _time(std::move(time_forest)), _power(std::move(power_forest)),
      _timeFlat(FlatForest::compile(_time)),
      _powerFlat(FlatForest::compile(_power)), _simd(simd),
      _instanceId(nextPredictorInstanceId())
{
    GPUPM_ASSERT(_time.fitted() && _power.fitted(),
                 "predictor needs fitted forests");
    _timeFlat.setSimdMode(simd);
    _powerFlat.setSimdMode(simd);
}

Prediction
RandomForestPredictor::predict(const PredictionQuery &q,
                               const hw::HwConfig &c) const
{
    Prediction p;
    predictBatch(q, std::span<const hw::HwConfig>(&c, 1),
                 std::span<Prediction>(&p, 1));
    return p;
}

void
RandomForestPredictor::predictRows(std::span<const FeatureVector> rows,
                                   std::span<double> time_log,
                                   std::span<double> gpu_power) const
{
    GPUPM_ASSERT(time_log.size() == rows.size() &&
                     gpu_power.size() == rows.size(),
                 "predictRows output size mismatch");
    if (rows.empty())
        return;
    trace::Span span(trace::Category::Ml, "ml.predictRows", "rows",
                     static_cast<double>(rows.size()));
    _timeFlat.predictBatch(rows, time_log);
    _powerFlat.predictBatch(rows, gpu_power);
}

namespace {

/**
 * One-entry per-kernel cache. A governor decision evaluates one kernel
 * against many configurations (sensitivity batch, climbing steps, or a
 * full PPK scan), and successive launches of the same kernel repeat the
 * same counters. Keyed on the raw counters (eight doubles,
 * padding-free) rather than the derived features, so a hit also skips
 * the log2-heavy makeKernelFeatures. thread_local: sweep workers each
 * run their own decisions.
 *
 * The entry memoizes finished predictions per dense config index: a
 * prediction is a pure function of (counters, config), and the MPC
 * premise is kernels relaunching with identical counters, so
 * steady-state decisions mostly re-request pairs already computed.
 * Memoized values are the values the forests produced, so hits are
 * bit-identical to recomputation. Misses walk the full forests; a
 * batch of one kernel's configs takes FlatForest's shared-prefix walk.
 */
struct KernelMemo
{
    std::uint64_t owner = 0;       ///< instanceId of the owning predictor.
    kernel::KernelCounters key{};  ///< Counters the entry belongs to.
    KernelFeatures kf{};           ///< Derived prefix, computed once.
    bool valid = false;
    std::vector<Prediction> memo;     ///< By denseConfigIndex.
    std::vector<std::uint8_t> known;  ///< Memo slot validity.
};

} // namespace

void
RandomForestPredictor::predictBatch(const PredictionQuery &q,
                                    std::span<const hw::HwConfig> cs,
                                    std::span<Prediction> out) const
{
    GPUPM_ASSERT(out.size() == cs.size(),
                 "predictBatch output size mismatch");
    const std::size_t n = cs.size();
    if (n == 0)
        return;
    trace::Span span(trace::Category::Ml, "ml.predictBatch", "configs",
                     static_cast<double>(n));

    const double proxy = instructionProxy(q.counters);

    // Per-kernel cache entry, claimed by any multi-config batch (a
    // governor decision). memcmp keys on the exact counter bits, so a
    // hit also skips the log2-heavy makeKernelFeatures. A one-off
    // single query with a cold cache (model evaluation sweeps) walks
    // the full forests directly and leaves the entry alone.
    thread_local KernelMemo cache;
    bool entry =
        cache.valid && cache.owner == _instanceId &&
        std::memcmp(&q.counters, &cache.key, sizeof(cache.key)) == 0;
    if (!entry && n >= 2) {
        cache.valid = false; // not reusable while rebuilding
        cache.owner = _instanceId;
        cache.key = q.counters;
        cache.kf = makeKernelFeatures(q.counters);
        cache.memo.resize(hw::denseConfigCount);
        cache.known.assign(hw::denseConfigCount, 0);
        cache.valid = true;
        entry = true;
    }

    // Scratch buffers are thread_local so the hot path never allocates
    // once warm (governors run one decision at a time per thread).
    thread_local std::vector<FeatureVector> feats;
    thread_local std::vector<double> time_pred, power_pred;

    if (!entry) {
        // Cold single query (n >= 2 always claims the entry). Routed
        // through the flat engines - not the scalar recursive walk -
        // so the answer comes from the *same* engine (and, in a
        // quantized mode, the same rounding) as the batched paths:
        // a prediction must be a pure function of (counters, config,
        // mode), never of cache state. Bit-identical to the recursive
        // walk in scalar mode.
        const auto kf = makeKernelFeatures(q.counters);
        for (std::size_t i = 0; i < n; ++i) {
            const auto f = combineFeatures(kf, configFeatures(cs[i]));
            // Trained on log(seconds per instruction); scale back up
            // by the counter-derived instruction proxy.
            out[i].time = std::exp(_timeFlat.predict(f)) * proxy;
            out[i].gpuPower = _powerFlat.predict(f);
        }
        return;
    }

    // Serve memoized configs; walk forests only for the rest.
    thread_local std::vector<std::uint32_t> miss;
    miss.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const auto di = hw::denseConfigIndex(cs[i]);
        if (cache.known[di])
            out[i] = cache.memo[di];
        else
            miss.push_back(static_cast<std::uint32_t>(i));
    }
    if (miss.empty())
        return;

    const std::size_t m = miss.size();
    feats.resize(m);
    time_pred.resize(m);
    power_pred.resize(m);
    for (std::size_t j = 0; j < m; ++j)
        feats[j] = combineFeatures(cache.kf, configFeatures(cs[miss[j]]));
    _timeFlat.predictBatch(feats, time_pred);
    _powerFlat.predictBatch(feats, power_pred);
    for (std::size_t j = 0; j < m; ++j) {
        const std::size_t i = miss[j];
        Prediction p;
        p.time = std::exp(time_pred[j]) * proxy;
        p.gpuPower = power_pred[j];
        out[i] = p;
        cache.memo[hw::denseConfigIndex(cs[i])] = p;
        cache.known[hw::denseConfigIndex(cs[i])] = 1;
    }
}

std::unique_ptr<RandomForestPredictor>
trainRandomForestPredictor(const TrainerOptions &opts,
                           TrainingReport *report)
{
    const kernel::GroundTruthModel model(hw::ApuParams::defaults());
    const hw::ConfigSpace space;
    const auto corpus =
        workload::trainingCorpus(opts.corpusSize, opts.seed);

    // Row generation fans out per corpus kernel; each job fills its own
    // slot and rows are appended in corpus order afterwards, so the
    // dataset is bit-identical to the serial loop at any job count.
    struct Row
    {
        FeatureVector f;
        double timeTarget;
        double powerTarget;
    };
    const int stride = std::max(1, opts.configStride);
    exec::SweepEngine engine({opts.jobs, opts.seed});
    const auto per_kernel = engine.map<std::vector<Row>>(
        corpus.size(), [&](std::size_t ki, Pcg32 &) {
            const auto &k = corpus[ki];
            std::vector<Row> rows;
            rows.reserve(space.size() / stride + 1);
            for (std::size_t ci = 0; ci < space.size();
                 ci += static_cast<std::size_t>(stride)) {
                const auto &c = space.at(ci);
                const auto est = model.estimate(k, c);
                const auto counters = model.counters(k, c, est);
                const auto pb = model.powerModel().steadyStatePower(
                    c, model.activity(est));
                rows.push_back(
                    {makeFeatures(counters, c),
                     std::log(est.time / instructionProxy(counters)),
                     pb.gpu()});
            }
            return rows;
        });

    Dataset time_data, power_data;
    for (const auto &rows : per_kernel) {
        for (const auto &row : rows) {
            time_data.add(row.f, row.timeTarget);
            power_data.add(row.f, row.powerTarget);
        }
    }

    ForestOptions time_opts = opts.forest;
    time_opts.jobs = opts.jobs;
    time_opts.seed = opts.seed ^ 0x1ee7ULL;
    ForestOptions power_opts = opts.forest;
    power_opts.jobs = opts.jobs;
    power_opts.seed = opts.seed ^ 0x9ab3ULL;

    RandomForest time_forest;
    RandomForest power_forest;
    if (auto *pool = engine.pool()) {
        // Both forests fit concurrently on the engine's pool, each
        // fanning its trees across the same workers. Per-tree inputs
        // are pre-drawn serially inside fit(), so the result is
        // byte-identical to the serial path at any job count.
        auto time_done = pool->submit(
            [&] { time_forest.fit(time_data, time_opts, pool); });
        power_forest.fit(power_data, power_opts, pool);
        time_done.get();
    } else {
        time_forest.fit(time_data, time_opts, nullptr);
        power_forest.fit(power_data, power_opts, nullptr);
    }

    if (report) {
        // Time OOB error is on the log-rate target; the proxy factor
        // cancels in the relative error, so exponentiate and compare.
        double s = 0.0;
        std::size_t n = 0;
        const auto &oob = time_forest.oobPredictions();
        for (std::size_t i = 0; i < time_data.size(); ++i) {
            if (!oob[i])
                continue;
            double actual = std::exp(time_data.y[i]);
            double pred = std::exp(*oob[i]);
            s += std::fabs((actual - pred) / actual);
            ++n;
        }
        report->timeOobMapePct =
            n ? 100.0 * s / static_cast<double>(n) : 0.0;
        report->powerOobMapePct = power_forest.oobMape(power_data);
        report->datasetRows = time_data.size();
    }

    return std::make_unique<RandomForestPredictor>(
        std::move(time_forest), std::move(power_forest), opts.simd);
}

EvalReport
evaluatePredictor(const PerfPowerPredictor &pred,
                  const std::vector<kernel::KernelParams> &ks)
{
    const kernel::GroundTruthModel model(hw::ApuParams::defaults());
    const hw::ConfigSpace space;

    EvalReport out;
    double time_err = 0.0, power_err = 0.0;
    for (const auto &k : ks) {
        for (const auto &c : space.all()) {
            const auto est = model.estimate(k, c);
            const auto pb = model.powerModel().steadyStatePower(
                c, model.activity(est));

            PredictionQuery q;
            q.counters = model.counters(k, c, est);
            q.instructions = k.instructions();
            q.groundTruth = &k;
            const auto p = pred.predict(q, c);

            time_err += std::fabs((est.time - p.time) / est.time);
            power_err += std::fabs((pb.gpu() - p.gpuPower) / pb.gpu());
            ++out.samples;
        }
    }
    if (out.samples) {
        out.timeMapePct = 100.0 * time_err / out.samples;
        out.powerMapePct = 100.0 * power_err / out.samples;
    }
    return out;
}

} // namespace gpupm::ml
