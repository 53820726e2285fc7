/**
 * @file
 * Offline training pipeline for the Random Forest predictor.
 *
 * Mirrors the paper's methodology (Sec. IV-A3, V): run a training corpus
 * of kernels over the hardware configurations, record the counters,
 * execution time and GPU power for each run, and fit two forests - one
 * for time (on a log target, given the wide dynamic range) and one for
 * power. The resulting RandomForestPredictor consumes only counters and
 * the target configuration; it never touches kernel ground truth.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/flat_forest.hpp"
#include "ml/predictor.hpp"
#include "ml/random_forest.hpp"

namespace gpupm::ml {

/**
 * Dynamic-instruction proxy computed from observable counters; the time
 * forest is trained on log(time / proxy) ("seconds per instruction"),
 * which has a far narrower dynamic range than absolute time and
 * therefore generalizes across kernels of very different sizes.
 */
double instructionProxy(const kernel::KernelCounters &c);

/**
 * The two fitted forests of a Random Forest predictor, as training
 * returns them and saveRandomForest writes them.
 */
struct TrainedForests
{
    /** log(seconds per instruction); see instructionProxy. */
    RandomForest time;
    /** GPU power (W). */
    RandomForest power;
};

/**
 * Counter-driven Random Forest predictor (the paper's "RF").
 *
 * The predictor holds its two forests only as FlatForest arenas,
 * compiled from trained forests or loaded from a saved model; all
 * inference - scalar and batched - runs on the flat engine, with the
 * kernel-feature prefix computed once per query and the config suffix
 * served from the paper model's precomputed table. Results are
 * bit-identical to RandomForest::predict on makeFeatures rows of the
 * forests the arenas came from. The predictor is stateless; governors
 * put a KernelMemo in front of it (ml/kernel_memo.hpp).
 */
class RandomForestPredictor : public PerfPowerPredictor
{
  public:
    /** Compile both forests; the predictor keeps no reference to them. */
    explicit RandomForestPredictor(const TrainedForests &forests);

    /** Serve already compiled forests (see loadRandomForest). */
    RandomForestPredictor(FlatForest time, FlatForest power);

    Prediction predict(const PredictionQuery &q,
                       const hw::HwConfig &c) const override;

    void predictBatch(const PredictionQuery &q,
                      std::span<const hw::HwConfig> cs,
                      std::span<Prediction> out) const override;

    /**
     * Raw forest outputs for prebuilt feature rows, which may mix
     * different kernels in one batch. predictBatch builds its rows from
     * the paper model's config features; KernelMemo builds its own
     * (its owner's hardware model's config descriptors) and walks only
     * its misses through here. Each row is
     * combineFeatures(makeKernelFeatures(counters),
     * configFeatures(config)); time_log[i] receives the time forest's
     * log(seconds-per-instruction) output (callers scale by
     * std::exp(time_log[i]) * instructionProxy(counters)), gpu_power[i]
     * the power forest's Watts. Per-row results are bit-identical to
     * predict()/predictBatch() on the same (counters, config): FlatForest
     * rows are evaluated independently, so batch composition never
     * changes a result. Stateless and safe to call concurrently.
     */
    void predictRows(std::span<const FeatureVector> rows,
                     std::span<double> time_log,
                     std::span<double> gpu_power) const;

    std::string name() const override { return "RF"; }

    /** The compiled inference engines (diagnostics). */
    const FlatForest &timeFlat() const { return _timeFlat; }
    const FlatForest &powerFlat() const { return _powerFlat; }

  private:
    FlatForest _timeFlat;
    FlatForest _powerFlat;
};

/** Training configuration. */
struct TrainerOptions
{
    /** Kernels in the training corpus. */
    std::size_t corpusSize = 128;
    /** Seed for corpus generation and forest fitting. */
    std::uint64_t seed = 0x7a41ULL;
    /** Keep every config (1) or sample every k-th config (k>1). */
    int configStride = 1;
    /**
     * Worker threads for dataset generation and forest fitting
     * (1 = serial, 0 = hardware concurrency). Output is bit-identical
     * for every value: dataset rows are produced per kernel and
     * appended in corpus order, both forests fit concurrently from
     * serially pre-drawn bootstrap samples and rng streams, and OOB
     * sums reduce in tree order (see ForestOptions::jobs).
     */
    std::size_t jobs = 1;
    ForestOptions forest = ForestOptions::regressionDefaults();
};

/** Accuracy summary of a trained predictor. */
struct TrainingReport
{
    double timeOobMapePct = 0.0;  ///< OOB MAPE of the time forest (%).
    double powerOobMapePct = 0.0; ///< OOB MAPE of the power forest (%).
    std::size_t datasetRows = 0;
};

/**
 * Build the training dataset and fit the forests.
 *
 * @param opts Training configuration.
 * @param[out] report Accuracy summary, if non-null.
 */
TrainedForests trainRandomForests(const TrainerOptions &opts = {},
                                  TrainingReport *report = nullptr);

/**
 * trainRandomForests, compiled into a predictor; the fitted forests
 * are dropped. Train with trainRandomForests instead to save them.
 */
std::unique_ptr<RandomForestPredictor>
trainRandomForestPredictor(const TrainerOptions &opts = {},
                           TrainingReport *report = nullptr);

/**
 * Evaluate a predictor's time/power MAPE against ground truth over a
 * set of kernels and all configurations (paper Sec. VI-D quotes 25%
 * performance and 12% power MAPE for its RF on the 15 benchmarks).
 */
struct EvalReport
{
    double timeMapePct = 0.0;
    double powerMapePct = 0.0;
    std::size_t samples = 0;
};

EvalReport evaluatePredictor(const PerfPowerPredictor &pred,
                             const std::vector<kernel::KernelParams> &ks);

} // namespace gpupm::ml
