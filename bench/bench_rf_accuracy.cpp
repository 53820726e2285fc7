/**
 * @file
 * Regenerates the paper's Sec. VI-D model-accuracy numbers: Mean
 * Absolute Percentage Error of the Random Forest performance and power
 * predictions over the 15 evaluation benchmarks' kernels at all 336
 * configurations.
 *
 * Paper: 25% performance MAPE, 12% power MAPE; the high performance
 * error is attributed to diverse scaling trends and outliers with
 * unexpected behaviour.
 */

#include <iostream>

#include "harness.hpp"

using namespace gpupm;

int
main(int argc, char **argv)
{
    bench::Harness::printHeader(
        "Sec. VI-D: Random Forest prediction accuracy",
        "Mean Absolute Percentage Errors quoted in Sec. VI-D");

    bench::Harness h(bench::harnessOptionsFromArgs(argc, argv));
    auto rf_shared = h.randomForest();
    const auto &rf =
        static_cast<const ml::RandomForestPredictor &>(*rf_shared);

    if (h.hasTrainingReport()) {
        std::cout << "Training: " << h.trainingReport().datasetRows
                  << " rows; OOB time MAPE "
                  << fmt(h.trainingReport().timeOobMapePct, 1)
                  << "%, OOB power MAPE "
                  << fmt(h.trainingReport().powerOobMapePct, 1) << "%\n";
    } else {
        std::cout << "Training: report unavailable (predictor loaded "
                     "via --model-cache)\n";
    }
    std::cout << "Forest: " << rf.timeFlat().treeCount()
              << " trees/target, "
              << rf.timeFlat().nodeCount() + rf.powerFlat().nodeCount()
              << " total nodes\n\n";

    TextTable t({"benchmark", "time MAPE (%)", "power MAPE (%)"});
    double time_sum = 0.0, power_sum = 0.0;
    std::size_t n = 0;
    for (const auto &name : workload::benchmarkNames()) {
        auto app = workload::makeBenchmark(name);
        std::vector<kernel::KernelParams> ks;
        for (const auto &inv : app.trace)
            ks.push_back(inv.params);
        const auto ev = ml::evaluatePredictor(rf, ks);
        t.addRow({name, fmt(ev.timeMapePct, 1),
                  fmt(ev.powerMapePct, 1)});
        time_sum += ev.timeMapePct;
        power_sum += ev.powerMapePct;
        ++n;
    }
    t.addRow({"AVERAGE", fmt(time_sum / n, 1), fmt(power_sum / n, 1)});
    t.print(std::cout);
    std::cout << "\n";

    bench::Harness::printPaperComparison(
        "RF accuracy", "25% performance MAPE, 12% power MAPE",
        fmt(time_sum / n, 1) + "% performance, " +
            fmt(power_sum / n, 1) +
            "% power (our time error is higher: the synthetic kernels' "
            "hidden overlap/serial behaviour is deliberately "
            "unobservable from the eight Table III counters, the same "
            "outlier mechanism the paper describes; Fig. 13 shows MPC "
            "tolerates it)");
    return 0;
}
