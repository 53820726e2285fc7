#include "harness.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/flags.hpp"
#include "common/logging.hpp"
#include "ml/serialize.hpp"
#include "trace/chrome_export.hpp"
#include "trace/trace.hpp"

namespace gpupm::bench {

HarnessOptions
harnessOptionsFromArgs(int argc, const char *const *argv)
{
    FlagParser flags("standard bench harness flags");
    flags.addInt("jobs", 0,
                 "sweep workers (0 = hardware concurrency, 1 = serial)");
    flags.addInt("seed", 0xe44,
                 "root seed for synthetic randomness");
    flags.addPath("model-cache", "",
                  "save/load the trained RF predictor at this path "
                  "(skips identical retraining across bench binaries)");
    flags.addPath("trace-out", "",
                  "write a Chrome trace-event JSON timeline of this "
                  "bench run here");
    if (!flags.parse(argc, argv)) {
        std::cerr << (flags.helpRequested() ? "" : flags.error() + "\n")
                  << flags.usage();
        std::exit(flags.helpRequested() ? 0 : 2);
    }
    HarnessOptions opts;
    opts.jobs = static_cast<std::size_t>(std::max(0, flags.getInt("jobs")));
    opts.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    opts.modelCache = flags.getPath("model-cache");
    opts.traceOut = flags.getPath("trace-out");
    return opts;
}

LatencySummary
LatencySummary::fromSnapshot(const telemetry::Snapshot &snapshot,
                             const std::string &histogram)
{
    LatencySummary out;
    const auto it = snapshot.histograms.find(histogram);
    if (it == snapshot.histograms.end())
        return out;
    out.count = it->second.count;
    out.p50 = it->second.p50;
    out.p95 = it->second.p95;
    out.p99 = it->second.p99;
    return out;
}

Harness::Harness(const HarnessOptions &opts)
    : _opts(opts), _engine({opts.jobs, opts.seed})
{
    if (!_opts.traceOut.empty())
        trace::Tracer::start();
}

Harness::~Harness()
{
    if (_opts.traceOut.empty())
        return;
    trace::Tracer::stop();
    const auto events = trace::Tracer::collect();
    std::ofstream os(_opts.traceOut, std::ios::binary);
    if (!os) {
        GPUPM_WARN("cannot write trace '", _opts.traceOut, "'");
        return;
    }
    trace::writeChromeTrace(os, events);
    std::cerr << "[harness] span timeline (" << events.size()
              << " events) written to " << _opts.traceOut << std::endl;
}

const std::vector<BenchCase> &
Harness::cases()
{
    {
        std::lock_guard lock(_initMutex);
        if (!_cases.empty())
            return _cases;
    }
    // Build outside the lock: the fan-out below runs on the engine, and
    // a worker job re-entering cases()/benchCase() must not deadlock.
    const auto names = workload::benchmarkNames();
    auto built = _engine.map<BenchCase>(
        names.size(), [&](std::size_t i, Pcg32 &) {
            BenchCase bc;
            bc.app = workload::makeBenchmark(names[i]);
            policy::TurboCoreGovernor turbo{hw::paperApu()};
            sim::Simulator sim{hw::paperApu()};
            bc.baseline = sim.run(bc.app, turbo);
            bc.target = bc.baseline.throughput();
            return bc;
        });
    std::lock_guard lock(_initMutex);
    if (_cases.empty())
        _cases = std::move(built);
    return _cases;
}

const BenchCase &
Harness::benchCase(const std::string &name)
{
    for (const auto &bc : cases()) {
        if (bc.app.name == name)
            return bc;
    }
    GPUPM_FATAL("no benchmark named '", name, "'");
}

std::shared_ptr<const ml::PerfPowerPredictor>
Harness::randomForest()
{
    std::lock_guard lock(_initMutex);
    if (!_rf) {
        if (!_opts.modelCache.empty()) {
            if (std::ifstream in(_opts.modelCache); in) {
                _rf = ml::loadRandomForest(in);
                std::cerr << "[harness] loaded RF predictor from cache "
                          << _opts.modelCache
                          << " (training report unavailable)"
                          << std::endl;
                return _rf;
            }
        }
        ml::TrainerOptions topts;
        topts.jobs = _opts.jobs;
        std::cerr << "[harness] training Random Forest predictor ("
                  << topts.corpusSize
                  << " corpus kernels x 336 configurations)..."
                  << std::endl;
        const auto trained =
            ml::trainRandomForests(topts, &_trainingReport);
        _hasTrainingReport = true;
        std::cerr << "[harness] trained: OOB time MAPE "
                  << fmt(_trainingReport.timeOobMapePct, 1)
                  << "%, power MAPE "
                  << fmt(_trainingReport.powerOobMapePct, 1) << "%"
                  << std::endl;
        if (!_opts.modelCache.empty()) {
            std::ofstream out(_opts.modelCache);
            if (out) {
                ml::saveRandomForest(trained, out);
                std::cerr << "[harness] saved RF predictor to "
                          << _opts.modelCache << std::endl;
            } else {
                GPUPM_WARN("cannot write model cache '", _opts.modelCache,
                           "' - continuing without caching");
            }
        }
        _rf = std::make_shared<const ml::RandomForestPredictor>(trained);
    }
    return _rf;
}

std::shared_ptr<const ml::PerfPowerPredictor>
Harness::groundTruth()
{
    std::lock_guard lock(_initMutex);
    if (!_truth)
        _truth = std::make_shared<ml::GroundTruthPredictor>(hw::ApuParams::defaults());
    return _truth;
}

std::shared_ptr<const ml::PerfPowerPredictor>
Harness::noisyPredictor(double time_err, double power_err) const
{
    return std::make_shared<ml::NoisyOraclePredictor>(
        time_err, power_err, _opts.seed,
        hw::ApuParams::defaults());
}

SchemeResult
Harness::finish(const BenchCase &bc, sim::RunResult run)
{
    SchemeResult out;
    out.energySavingsPct = sim::energySavingsPct(bc.baseline, run);
    out.gpuEnergySavingsPct = sim::gpuEnergySavingsPct(bc.baseline, run);
    out.speedup = sim::speedup(bc.baseline, run);
    out.run = std::move(run);
    return out;
}

SchemeResult
Harness::runPpk(const BenchCase &bc,
                std::shared_ptr<const ml::PerfPowerPredictor> pred,
                const policy::PpkOptions &opts)
{
    // Local simulator per call: the scheme runners are invoked
    // concurrently from mapCases workers.
    sim::Simulator sim{hw::paperApu()};
    policy::PpkGovernor gov(std::move(pred), opts, hw::paperApu());
    return finish(bc, sim.run(bc.app, gov, bc.target));
}

SchemeResult
Harness::runMpc(const BenchCase &bc,
                std::shared_ptr<const ml::PerfPowerPredictor> pred,
                const mpc::MpcOptions &opts, int extra_runs)
{
    GPUPM_ASSERT(extra_runs >= 1, "need at least one optimized run");
    sim::Simulator sim{hw::paperApu()};
    mpc::MpcGovernor gov(std::move(pred), opts, hw::paperApu());
    sim.run(bc.app, gov, bc.target); // profiling execution
    sim::RunResult last;
    for (int i = 0; i < extra_runs; ++i)
        last = sim.run(bc.app, gov, bc.target);
    auto out = finish(bc, std::move(last));
    out.mpcStats = gov.runStats();
    out.mpcKernelCount = gov.kernelCount();
    return out;
}

SchemeResult
Harness::runOracle(const BenchCase &bc, std::size_t jobs)
{
    sim::Simulator sim{hw::paperApu()};
    policy::TheoreticallyOptimalGovernor gov(bc.app, hw::paperApu(),
                                             6000, {}, jobs);
    return finish(bc, sim.run(bc.app, gov, bc.target));
}

mpc::MpcOptions
Harness::limitStudyOptions()
{
    mpc::MpcOptions opts;
    opts.chargeOverhead = false;
    opts.overhead = policy::OverheadModel::free();
    opts.horizonMode = mpc::HorizonMode::Full;
    return opts;
}

void
Harness::printHeader(const std::string &title,
                     const std::string &paper_reference)
{
    std::cout << "\n=== " << title << " ===\n"
              << "Reproduces: " << paper_reference << "\n\n";
}

void
Harness::printPaperComparison(const std::string &what,
                              const std::string &paper,
                              const std::string &ours)
{
    std::cout << "[shape check] " << what << ": paper " << paper
              << " | this reproduction " << ours << "\n";
}

} // namespace gpupm::bench
