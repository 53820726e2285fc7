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
 * Counter-driven Random Forest predictor (the paper's "RF").
 *
 * Construction compiles both fitted forests into FlatForest arenas;
 * all inference - scalar and batched - runs on the flat engine, with
 * the kernel-feature prefix computed once per query and the config
 * suffix served from the precomputed table. Results are bit-identical
 * to evaluating the retained scalar forests via makeFeatures.
 */
class RandomForestPredictor : public PerfPowerPredictor
{
  public:
    /**
     * @param simd Inference engine for both compiled forests (see
     * simd.hpp). Fixed for the predictor's lifetime so per-kernel
     * memo caches and residual caches never mix engines;
     * online refits propagate the serving generation's mode.
     */
    RandomForestPredictor(RandomForest time_forest,
                          RandomForest power_forest,
                          SimdMode simd = defaultSimdMode());

    Prediction predict(const PredictionQuery &q,
                       const hw::HwConfig &c) const override;

    void predictBatch(const PredictionQuery &q,
                      std::span<const hw::HwConfig> cs,
                      std::span<Prediction> out) const override;

    /**
     * Broker hook: raw forest outputs for prebuilt feature rows that
     * may mix *different kernels* in one batch. predictBatch scores one
     * kernel against many configs; an inference broker coalescing
     * requests from many concurrent sessions needs the transpose - many
     * (kernel, config) rows walked tree-major in a single pass. Each
     * row is combineFeatures(makeKernelFeatures(counters),
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

    const RandomForest &timeForest() const { return _time; }
    const RandomForest &powerForest() const { return _power; }

    /** The compiled inference engines (diagnostics). */
    const FlatForest &timeFlat() const { return _timeFlat; }
    const FlatForest &powerFlat() const { return _powerFlat; }

    /** Requested inference engine (construction-time, immutable). */
    SimdMode simdMode() const { return _simd; }
    /** The execution path the mode resolved to on this host. */
    SimdPath simdPath() const { return _timeFlat.simdPath(); }

    /**
     * Process-unique identity of this predictor instance. Caches keyed
     * on the predictor (the per-thread kernel memo) must use
     * this rather than the object address: online retraining destroys
     * predictors and allocates replacements, and a recycled address
     * would validate a stale cache entry against the new forests.
     */
    std::uint64_t instanceId() const { return _instanceId; }

  private:
    RandomForest _time;
    RandomForest _power;
    FlatForest _timeFlat;
    FlatForest _powerFlat;
    SimdMode _simd;
    std::uint64_t _instanceId;
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
    /**
     * Inference engine for the trained predictor (`--simd` flag /
     * GPUPM_SIMD env; see simd.hpp). Training itself - splits, OOB
     * accumulation - always runs the float path; this only selects
     * how the resulting predictor evaluates.
     */
    SimdMode simd = defaultSimdMode();
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
