/**
 * @file
 * Shared infrastructure for the experiment harnesses.
 *
 * Each bench_* binary regenerates one table or figure of the paper. The
 * harness centralizes the common plumbing: the Turbo Core baseline run,
 * predictor construction (the Random Forest is trained once and shared),
 * steady-state MPC execution (profile run + optimized runs, as in
 * Sec. VI-A), and formatted output with the paper's reported values
 * alongside ours.
 *
 * Harnesses fan their per-benchmark work across the sweep engine
 * (mapCases); every bench binary accepts --jobs N (default: hardware
 * concurrency; 1 preserves the exact serial path) and --seed S (the
 * root seed for all synthetic-randomness, e.g. the noisy predictors).
 * Output is bit-identical for every --jobs value.
 */

#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "exec/sweep.hpp"
#include "telemetry/telemetry.hpp"
#include "ml/error_model.hpp"
#include "ml/trainer.hpp"
#include "mpc/governor.hpp"
#include "policy/oracle.hpp"
#include "policy/ppk.hpp"
#include "policy/turbo_core.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"

namespace gpupm::bench {

/** One benchmark with its Turbo Core reference run. */
struct BenchCase
{
    workload::Application app;
    sim::RunResult baseline;
    Throughput target = 0.0;
};

/** Result of running a scheme in steady state. */
struct SchemeResult
{
    sim::RunResult run;
    double energySavingsPct = 0.0; ///< vs Turbo Core.
    double gpuEnergySavingsPct = 0.0;
    double speedup = 0.0;
    mpc::MpcRunStats mpcStats{}; ///< Populated for MPC schemes.
    std::size_t mpcKernelCount = 0;
};

/**
 * Percentile view of one telemetry histogram, for bench reporting.
 * The google-benchmark binaries stamp these into the JSON as
 * latency_p50_ns / latency_p95_ns / latency_p99_ns counters, which is
 * what lets perf_compare.py diff tail latency between runs instead of
 * only mean rates.
 */
struct LatencySummary
{
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;

    /**
     * Summarize @p histogram from @p snapshot; all-zeros when the
     * histogram is absent or empty (a bench with no recorded samples
     * stamps zeros rather than failing).
     */
    static LatencySummary fromSnapshot(
        const telemetry::Snapshot &snapshot,
        const std::string &histogram);
};

/** Harness-wide execution options. */
struct HarnessOptions
{
    /** Sweep workers; 0 = hardware concurrency, 1 = serial path. */
    std::size_t jobs = 0;
    /** Root seed for synthetic randomness (noisy predictors). */
    std::uint64_t seed = 0xe44ULL;
    /**
     * Save/load the trained RF predictor at this path (empty = always
     * retrain). Training is deterministic, so the 17 bench binaries
     * produce identical predictors — with a cache only the first one
     * pays for the fit. On a cache hit the training report (OOB MAPE)
     * is unavailable; benches that print it should retrain.
     */
    std::string modelCache;
    /**
     * Write a Chrome trace-event JSON timeline of the bench run here
     * (empty = tracing stays disabled). Spans cover the whole Harness
     * lifetime; the file is written by the destructor.
     */
    std::string traceOut;
};

/**
 * Parse the standard bench flags (--jobs, --seed, --model-cache,
 * --trace-out) from argv. Prints usage and exits on --help or
 * a malformed command line.
 */
HarnessOptions harnessOptionsFromArgs(int argc,
                                      const char *const *argv);

class Harness
{
  public:
    explicit Harness(const HarnessOptions &opts = {});
    /** Writes the --trace-out timeline, when one was requested. */
    ~Harness();

    const HarnessOptions &options() const { return _opts; }

    /** All 15 paper benchmarks with their baselines (cached). */
    const std::vector<BenchCase> &cases();

    /** One benchmark by name. */
    const BenchCase &benchCase(const std::string &name);

    /**
     * Fan fn over the 15 benchmark cases on the sweep engine;
     * result[i] always belongs to cases()[i]. fn must be thread-safe
     * (the scheme runners below are). Bit-identical at any --jobs.
     */
    template <typename R>
    std::vector<R>
    mapCases(const std::function<R(const BenchCase &)> &fn)
    {
        const auto &cs = cases();
        return _engine.map<R>(cs.size(),
                              [&](std::size_t i, Pcg32 &) {
                                  return fn(cs[i]);
                              });
    }

    /** The engine the harness fans work across. */
    exec::SweepEngine &engine() { return _engine; }

    /**
     * The trained Random Forest predictor (paper Sec. IV-A3), trained
     * once on first use and shared across harness calls.
     */
    std::shared_ptr<const ml::PerfPowerPredictor> randomForest();

    /** Perfect-knowledge predictor (Err_0%). */
    std::shared_ptr<const ml::PerfPowerPredictor> groundTruth();

    /**
     * Half-normal error predictor (Fig. 13), seeded from the harness
     * --seed flag so bench runs are reproducible at any --jobs.
     */
    std::shared_ptr<const ml::PerfPowerPredictor>
    noisyPredictor(double time_err, double power_err) const;

    /** PPK over a benchmark (single run; PPK does not learn). */
    SchemeResult
    runPpk(const BenchCase &bc,
           std::shared_ptr<const ml::PerfPowerPredictor> pred,
           const policy::PpkOptions &opts = {});

    /**
     * MPC in steady state: one profiling execution plus @p extra_runs
     * optimized executions; the last run is reported (Sec. VI-A).
     */
    SchemeResult
    runMpc(const BenchCase &bc,
           std::shared_ptr<const ml::PerfPowerPredictor> pred,
           const mpc::MpcOptions &opts = {}, int extra_runs = 2);

    /**
     * Theoretically Optimal over a benchmark. @p jobs parallelizes the
     * plan construction (use > 1 only outside mapCases, which already
     * saturates the machine with one benchmark per worker).
     */
    SchemeResult runOracle(const BenchCase &bc, std::size_t jobs = 1);

    /** Limit-study MPC options: full horizon, free, perfect-friendly. */
    static mpc::MpcOptions limitStudyOptions();

    /** Print a standard header naming the figure being regenerated. */
    static void printHeader(const std::string &title,
                            const std::string &paper_reference);

    /**
     * Print the closing shape-check line: what the paper reports vs
     * what this reproduction measured.
     */
    static void printPaperComparison(const std::string &what,
                                     const std::string &paper,
                                     const std::string &ours);

  private:
    SchemeResult finish(const BenchCase &bc, sim::RunResult run);

    HarnessOptions _opts;
    exec::SweepEngine _engine;
    /** Guards lazy construction of the shared state below. */
    std::mutex _initMutex;
    std::vector<BenchCase> _cases;
    std::shared_ptr<const ml::PerfPowerPredictor> _rf;
    std::shared_ptr<const ml::PerfPowerPredictor> _truth;
    ml::TrainingReport _trainingReport;
    bool _hasTrainingReport = false;

  public:
    const ml::TrainingReport &trainingReport() const
    {
        return _trainingReport;
    }

    /**
     * False when randomForest() was served from --model-cache (or has
     * not been requested yet): the report is then default-constructed
     * zeros, which would read as a perfect 0% MAPE.
     */
    bool hasTrainingReport() const { return _hasTrainingReport; }
};

} // namespace gpupm::bench
