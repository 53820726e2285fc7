/**
 * @file
 * Train and inspect the Random Forest performance/power predictor.
 *
 * Walks through the offline pipeline of paper Sec. IV-A3: generate a
 * training corpus, measure it across hardware configurations, fit the
 * forests, and evaluate generalization on held-out kernels and on the
 * evaluation benchmarks. Also demonstrates querying the predictor
 * directly for a what-if sweep over GPU DPM states.
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "gpupm.hpp"

using namespace gpupm;

int
main()
{
    // 1. Train. corpusSize/configStride trade accuracy for time;
    // jobs = 0 fans dataset generation and both forest fits across all
    // cores (the result is bit-identical to a serial jobs = 1 run).
    ml::TrainerOptions opts;
    opts.corpusSize = 64;
    opts.configStride = 2;
    opts.jobs = 0;
    ml::TrainingReport report;
    std::cout << "Training on " << opts.corpusSize
              << " synthetic kernels (every "
              << opts.configStride << "nd of 336 configurations)...\n";
    // Training returns the fitted forests: save them (step 5), and
    // compile them into the predictor that serves queries.
    const auto forests = ml::trainRandomForests(opts, &report);
    const auto rf = std::make_unique<ml::RandomForestPredictor>(forests);

    std::cout << "  dataset rows:   " << report.datasetRows << "\n"
              << "  OOB time MAPE:  " << fmt(report.timeOobMapePct, 1)
              << "%\n"
              << "  OOB power MAPE: " << fmt(report.powerOobMapePct, 1)
              << "%\n\n";

    // 2. Generalization to held-out kernels from the same generator.
    const auto held_out = workload::trainingCorpus(8, 0xfeedULL);
    const auto in_dist = ml::evaluatePredictor(*rf, held_out);
    std::cout << "Held-out synthetic kernels: time MAPE "
              << fmt(in_dist.timeMapePct, 1) << "%, power MAPE "
              << fmt(in_dist.powerMapePct, 1) << "%\n";

    // 3. Generalization to the paper's evaluation benchmarks.
    std::vector<kernel::KernelParams> bench_kernels;
    for (const auto &name : {"Spmv", "kmeans", "lbm"}) {
        auto app = workload::makeBenchmark(name);
        for (const auto &inv : app.trace)
            bench_kernels.push_back(inv.params);
    }
    const auto xfer = ml::evaluatePredictor(*rf, bench_kernels);
    std::cout << "Evaluation-benchmark kernels: time MAPE "
              << fmt(xfer.timeMapePct, 1) << "%, power MAPE "
              << fmt(xfer.powerMapePct, 1) << "%\n\n";

    // 4. What-if query: sweep the GPU DPM state for one kernel.
    kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    auto app = workload::makeBenchmark("Spmv");
    const auto &k = app.trace[0].params;
    const auto ref_cfg = hw::ConfigSpace::failSafe();
    const auto est = model.estimate(k, ref_cfg);

    ml::PredictionQuery q;
    q.counters = model.counters(k, ref_cfg, est);
    q.instructions = k.instructions();

    std::cout << "What-if sweep for " << k.name
              << " (counters captured at " << ref_cfg.toString()
              << "):\n";
    TextTable t({"config", "predicted time (ms)", "actual time (ms)",
                 "predicted GPU power (W)"});
    for (auto gpu :
         {hw::GpuPState::DPM0, hw::GpuPState::DPM2, hw::GpuPState::DPM4}) {
        hw::HwConfig c = ref_cfg;
        c.gpu = gpu;
        const auto p = rf->predict(q, c);
        const auto actual = model.estimate(k, c);
        t.addRow({c.toString(), fmt(p.time * 1e3, 3),
                  fmt(actual.time * 1e3, 3), fmt(p.gpuPower, 1)});
    }
    t.print(std::cout);

    // 5. Ship the trained model: save to disk, load it back, verify.
    const std::string model_path = "gpupm_model.rf";
    {
        std::ofstream out(model_path);
        ml::saveRandomForest(forests, out);
    }
    std::ifstream in(model_path);
    auto reloaded = ml::loadRandomForest(in);
    const auto check = reloaded->predict(q, ref_cfg);
    const auto orig = rf->predict(q, ref_cfg);
    std::cout << "\nModel saved to " << model_path
              << " and reloaded; predictions identical: "
              << (check.time == orig.time &&
                          check.gpuPower == orig.gpuPower
                      ? "yes"
                      : "NO")
              << "\n";
    return 0;
}
