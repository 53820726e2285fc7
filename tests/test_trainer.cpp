#include <gtest/gtest.h>

#include <sstream>

#include "kernel/perf_model.hpp"

#include "ml/serialize.hpp"
#include "ml/trainer.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {
namespace {

/** Small, fast training configuration for tests. */
TrainerOptions
smallOptions()
{
    TrainerOptions opts;
    opts.corpusSize = 12;
    opts.configStride = 6;
    opts.forest.numTrees = 12;
    return opts;
}

TEST(Trainer, TrainsAndReports)
{
    TrainingReport rep;
    auto rf = trainRandomForestPredictor(smallOptions(), &rep);
    ASSERT_NE(rf, nullptr);
    EXPECT_EQ(rf->name(), "RF");
    EXPECT_GT(rep.datasetRows, 0u);
    EXPECT_GT(rep.timeOobMapePct, 0.0);
    EXPECT_GT(rep.powerOobMapePct, 0.0);
    EXPECT_LT(rep.timeOobMapePct, 100.0);
}

TEST(Trainer, PredictsPositiveValues)
{
    auto rf = trainRandomForestPredictor(smallOptions());
    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const auto ks = workload::trainingCorpus(4, 0xdead);
    const hw::ConfigSpace space;
    for (const auto &k : ks) {
        for (std::size_t ci = 0; ci < space.size(); ci += 61) {
            const auto &c = space.at(ci);
            PredictionQuery q;
            const auto est = model.estimate(k, c);
            q.counters = model.counters(k, c, est);
            q.instructions = k.instructions();
            const auto p = rf->predict(q, c);
            EXPECT_GT(p.time, 0.0);
            EXPECT_GT(p.gpuPower, 0.0);
            EXPECT_LT(p.gpuPower, 100.0);
        }
    }
}

TEST(Trainer, DoesNotNeedGroundTruthHandle)
{
    // The RF path must work with PredictionQuery::groundTruth null -
    // it is counter-driven by construction.
    auto rf = trainRandomForestPredictor(smallOptions());
    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const auto k = workload::trainingCorpus(1, 1)[0];
    const auto c = hw::ConfigSpace::failSafe();
    PredictionQuery q;
    const auto est = model.estimate(k, c);
    q.counters = model.counters(k, c, est);
    q.instructions = k.instructions();
    q.groundTruth = nullptr;
    EXPECT_GT(rf->predict(q, c).time, 0.0);
}

TEST(Trainer, DeterministicInSeed)
{
    auto a = trainRandomForestPredictor(smallOptions());
    auto b = trainRandomForestPredictor(smallOptions());
    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const auto k = workload::trainingCorpus(1, 7)[0];
    const auto c = hw::ConfigSpace::maxPerformance();
    PredictionQuery q;
    const auto est = model.estimate(k, c);
    q.counters = model.counters(k, c, est);
    const auto pa = a->predict(q, c);
    const auto pb = b->predict(q, c);
    EXPECT_DOUBLE_EQ(pa.time, pb.time);
    EXPECT_DOUBLE_EQ(pa.gpuPower, pb.gpuPower);
}

TEST(Trainer, JobsByteIdenticalModel)
{
    // The whole pipeline — dataset generation, both forest fits, OOB —
    // must produce byte-identical forests at any job count.
    TrainerOptions serial = smallOptions();
    serial.jobs = 1;
    TrainingReport serial_rep;
    const auto a = trainRandomForests(serial, &serial_rep);

    TrainerOptions parallel = smallOptions();
    parallel.jobs = 8;
    TrainingReport parallel_rep;
    const auto b = trainRandomForests(parallel, &parallel_rep);

    std::ostringstream sa, sb;
    saveRandomForest(a, sa);
    saveRandomForest(b, sb);
    EXPECT_EQ(sa.str(), sb.str());
    EXPECT_EQ(serial_rep.timeOobMapePct, parallel_rep.timeOobMapePct);
    EXPECT_EQ(serial_rep.powerOobMapePct, parallel_rep.powerOobMapePct);
    EXPECT_EQ(serial_rep.datasetRows, parallel_rep.datasetRows);
}

TEST(Trainer, ReasonableInDistributionAccuracy)
{
    // Kernels drawn from the same distribution as the corpus (but a
    // different seed) should be predicted within a loose band.
    TrainerOptions opts = smallOptions();
    opts.corpusSize = 48;
    opts.configStride = 3;
    auto rf = trainRandomForestPredictor(opts);
    const auto eval = evaluatePredictor(
        *rf, workload::trainingCorpus(6, 0xbeefULL));
    EXPECT_LT(eval.timeMapePct, 80.0);
    EXPECT_LT(eval.powerMapePct, 30.0);
    EXPECT_GT(eval.samples, 0u);
}

TEST(Trainer, EvaluateReportsSampleCount)
{
    auto rf = trainRandomForestPredictor(smallOptions());
    const auto ks = workload::trainingCorpus(2, 3);
    const auto eval = evaluatePredictor(*rf, ks);
    EXPECT_EQ(eval.samples, 2u * 336u);
}

} // namespace
} // namespace gpupm::ml
