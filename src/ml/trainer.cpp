#include "ml/trainer.hpp"

#include <cmath>

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

RandomForestPredictor::RandomForestPredictor(const TrainedForests &forests)
    : RandomForestPredictor(FlatForest::compile(forests.time),
                            FlatForest::compile(forests.power))
{
}

RandomForestPredictor::RandomForestPredictor(FlatForest time,
                                             FlatForest power)
    : _timeFlat(std::move(time)), _powerFlat(std::move(power))
{
    GPUPM_ASSERT(_timeFlat.compiled() && _powerFlat.compiled(),
                 "predictor needs fitted forests");
}

Prediction
RandomForestPredictor::predict(const PredictionQuery &q,
                               const hw::HwConfig &c) const
{
    const auto f =
        combineFeatures(makeKernelFeatures(q.counters), configFeatures(c));
    // Trained on log(seconds per instruction); scale back up by the
    // counter-derived instruction proxy.
    return {std::exp(_timeFlat.predict(f)) * instructionProxy(q.counters),
            _powerFlat.predict(f)};
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
    const auto kf = makeKernelFeatures(q.counters);
    std::vector<FeatureVector> rows(n);
    for (std::size_t i = 0; i < n; ++i)
        rows[i] = combineFeatures(kf, configFeatures(cs[i]));
    std::vector<double> time_log(n), gpu_power(n);
    predictRows(rows, time_log, gpu_power);
    const double proxy = instructionProxy(q.counters);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = {std::exp(time_log[i]) * proxy, gpu_power[i]};
}

TrainedForests
trainRandomForests(const TrainerOptions &opts, TrainingReport *report)
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

    TrainedForests forests;
    RandomForest &time_forest = forests.time;
    RandomForest &power_forest = forests.power;
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

    return forests;
}

std::unique_ptr<RandomForestPredictor>
trainRandomForestPredictor(const TrainerOptions &opts,
                           TrainingReport *report)
{
    return std::make_unique<RandomForestPredictor>(
        trainRandomForests(opts, report));
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
