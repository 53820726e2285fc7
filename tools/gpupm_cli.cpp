/**
 * @file
 * gpupm command-line driver.
 *
 * Subcommands:
 *   list                      list the built-in benchmarks
 *   info                      DVFS tables and search-space summary
 *   train [flags]             train a Random Forest and save it
 *   run [flags]               run governors over benchmarks
 *   sweep [flags]             fan benchmark x governor jobs over a pool
 *   fleet [flags]             serve N concurrent governor sessions
 *   serve [flags]             expose the fleet server over TCP (epoll)
 *   replay [flags]            re-drive a decision JSONL dump offline
 *
 * Examples:
 *   gpupm run --bench Spmv --governor mpc --predictor perfect
 *   gpupm run --bench all --governor mpc --predictor rf --model m.rf
 *   gpupm run --bench kmeans --governor mpc --trace kmeans.csv
 *   gpupm train --out model.rf --corpus 128 --jobs 8
 *   gpupm sweep --bench all --governors turbo,ppk,mpc --jobs 8
 *   gpupm fleet --sessions 16 --jobs 8 --model m.rf --trace fleet.jsonl
 *   gpupm fleet --sessions 16 --jobs 8 --trace-out timeline.json \
 *       --trace-decisions decisions.jsonl
 *   gpupm fleet --sessions 16 --online-learn --drift-threshold 20
 *   gpupm fleet --sessions 100000 --shards 8 --jobs 8 --shed
 *   gpupm serve --listen 127.0.0.1:0 --shards 4 --jobs 4
 *   gpupm run --bench Spmv --governor pi --hw-model eco-apu
 *   gpupm fleet --sessions 8 --hw-models paper-apu,eco-apu \
 *       --deadlines 0,1.25
 *   gpupm replay --trace fleet.jsonl --expect-identical
 */

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "exec/replay.hpp"
#include "exec/sweep_jobs.hpp"
#include "hw/model.hpp"
#include "ml/error_model.hpp"
#include "ml/serialize.hpp"
#include "ml/trainer.hpp"
#include "mpc/governor.hpp"
#include "online/adaptive_predictor.hpp"
#include "online/learner.hpp"
#include "policy/oracle.hpp"
#include "policy/pi_governor.hpp"
#include "powercap/arbiter.hpp"
#include "powercap/thermal_governor.hpp"
#include "policy/ppk.hpp"
#include "policy/turbo_core.hpp"
#include "serve/net_server.hpp"
#include "serve/server.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_export.hpp"
#include "trace/decision.hpp"
#include "trace/jsonl_export.hpp"
#include "trace/trace.hpp"
#include "workload/benchmarks.hpp"

using namespace gpupm;

namespace {

int
cmdList()
{
    TextTable t({"benchmark", "category", "pattern", "launches"});
    for (const auto &app : workload::allBenchmarks()) {
        t.addRow({app.name, toString(app.category), app.patternNotation,
                  std::to_string(app.kernelCount())});
    }
    t.print(std::cout);
    return 0;
}

int
cmdInfo()
{
    hw::ConfigSpace space;
    std::cout << "Modeled platform: AMD A10-7850K-class APU\n"
              << "Search space: " << space.size()
              << " configurations (7 CPU x 4 NB x 3 GPU x 4 CU)\n"
              << "Fail-safe: " << hw::ConfigSpace::failSafe().toString()
              << "\nBoost:     "
              << hw::ConfigSpace::maxPerformance().toString() << "\n"
              << "TDP: " << fmt(hw::ApuParams::defaults().tdp, 0)
              << " W\n"
              << "Hardware catalog:";
    for (const auto &name : hw::HardwareCatalog::instance().names()) {
        const auto m = hw::HardwareCatalog::instance().get(name);
        std::cout << " " << name << " (" << fmt(m->tdp(), 0) << " W, "
                  << m->space().size() << " configs)";
    }
    std::cout << "\n";
    return 0;
}

/** Shared --hw-model flag: pick a registered hardware model. */
void
addHwModelFlag(FlagParser &flags)
{
    flags.addChoice("hw-model", hw::paperApuName,
                    "hardware model from the catalog",
                    hw::HardwareCatalog::instance().names());
}

hw::HardwareModelPtr
getHwModel(const FlagParser &flags)
{
    // Parse-time choice validation guarantees the name resolves.
    return hw::HardwareCatalog::instance().get(
        flags.getString("hw-model"));
}

/**
 * Shared --trace-out / --trace-decisions plumbing for the subcommands
 * that execute governors. Construct after a successful parse: a
 * requested timeline starts the span tracer immediately so the whole
 * run is covered. finish() writes whichever artifacts were asked for.
 */
class TraceOutputs
{
  public:
    static void
    addFlags(FlagParser &flags)
    {
        flags.addPath("trace-out", "",
                      "write a Chrome trace-event JSON timeline here "
                      "(load in chrome://tracing or Perfetto)");
        flags.addPath("trace-decisions", "",
                      "write per-decision provenance records here "
                      "(JSON lines)");
    }

    explicit TraceOutputs(const FlagParser &flags)
        : _out(flags.getPath("trace-out")),
          _decisions(flags.getPath("trace-decisions"))
    {
        if (!_out.empty())
            trace::Tracer::start();
    }

    /** Sink for governor provenance; null when not requested. */
    trace::DecisionLog *
    log()
    {
        return _decisions.empty() ? nullptr : &_log;
    }

    int
    finish()
    {
        if (!_out.empty()) {
            trace::Tracer::stop();
            const auto events = trace::Tracer::collect();
            std::ofstream os(_out, std::ios::binary);
            if (!os) {
                std::cerr << "cannot write " << _out << "\n";
                return 1;
            }
            trace::writeChromeTrace(os, events);
            std::cout << "span timeline (" << events.size()
                      << " events) written to " << _out << "\n";
            if (const auto n = trace::Tracer::dropped())
                std::cerr << "warning: " << n
                          << " span events dropped (ring full)\n";
        }
        if (!_decisions.empty()) {
            auto records = _log.take();
            trace::sortDecisions(records);
            std::ofstream os(_decisions, std::ios::binary);
            if (!os) {
                std::cerr << "cannot write " << _decisions << "\n";
                return 1;
            }
            trace::writeDecisionJsonl(os, records);
            std::cout << records.size()
                      << " decision records written to " << _decisions
                      << "\n";
        }
        return 0;
    }

  private:
    std::string _out;
    std::string _decisions;
    trace::DecisionLog _log;
};

/**
 * Shared --online-learn flag family for the subcommands that can close
 * the loop: drift-triggered Random Forest retraining with RCU hot-swap
 * (requires --predictor rf).
 */
void
addOnlineFlags(FlagParser &flags)
{
    flags.addBool("online-learn",
                  "enable drift-triggered forest retraining with "
                  "zero-pause hot-swap (requires --predictor rf)");
    flags.addInt("drift-window", 32,
                 "per-kernel rolling error-window length", 2, 1 << 16);
    flags.addDouble("drift-threshold", 25.0,
                    "rolling time-MAPE (%) that arms a drift trigger");
    flags.addInt("drift-sustain", 4,
                 "consecutive over-threshold observations to trigger", 1,
                 1 << 16);
    flags.addInt("online-min-rows", 256,
                 "training rows required before a trigger may refit", 1,
                 1 << 24);
}

online::OnlineOptions
parseOnlineOptions(const FlagParser &flags)
{
    online::OnlineOptions o;
    o.drift.window =
        static_cast<std::size_t>(flags.getInt("drift-window"));
    o.drift.minSamples = std::min(o.drift.minSamples, o.drift.window);
    o.drift.timeThresholdPct = flags.getDouble("drift-threshold");
    o.drift.sustain =
        static_cast<std::size_t>(flags.getInt("drift-sustain"));
    o.minRows = static_cast<std::size_t>(flags.getInt("online-min-rows"));
    return o;
}

/**
 * Shared --shards / --shed flag family for the fleet subcommands:
 * tenant-hash sharding of the decision server's session managers plus
 * its windowed-error overload controller (serve/shed.hpp).
 */
void
addShardFlags(FlagParser &flags)
{
    flags.addInt("shards", 1,
                 "tenant-hash session-manager shards (the server keeps "
                 "one request queue and one shed controller)",
                 1, 4096);
    flags.addBool("shed",
                  "enable overload shedding: sustained request-queue "
                  "pressure degrades decisions to the fail-safe config");
    flags.addInt("shed-window", 64,
                 "admission samples per shed decision window", 1,
                 1 << 20);
    flags.addInt("shed-depth", 256,
                 "server-wide queue-depth setpoint; sustained depth "
                 "above this sheds",
                 1, 1 << 20);
    flags.addInt("shed-sustain", 2,
                 "consecutive over-target windows required to shed", 1,
                 1 << 16);
    flags.addInt("shed-recover", 2,
                 "consecutive calm windows required to recover", 1,
                 1 << 16);
}

serve::ShedOptions
parseShedOptions(const FlagParser &flags)
{
    serve::ShedOptions s;
    s.enabled = flags.getBool("shed");
    s.window = static_cast<std::size_t>(flags.getInt("shed-window"));
    s.targetDepth =
        static_cast<std::size_t>(flags.getInt("shed-depth"));
    s.sustain = static_cast<std::size_t>(flags.getInt("shed-sustain"));
    s.recover = static_cast<std::size_t>(flags.getInt("shed-recover"));
    return s;
}

/**
 * Shared --power-cap flag family for the fleet subcommands: the fleet
 * budget arbiter (powercap/arbiter.hpp) plus the per-session reactive
 * thermal cap governor (powercap/thermal_governor.hpp). Both default
 * to 0 = disabled; explicit values are range-checked at parse time.
 */
void
addPowercapFlags(FlagParser &flags)
{
    flags.addDouble("power-cap", 0.0,
                    "total fleet power budget in watts (0 = uncapped)",
                    0.001, 1e6);
    flags.addString("cap-policy", "equal",
                    "budget split policy: equal | usage | weighted");
    flags.addInt("cap-window", 16,
                 "per-session decisions per cap-violation window", 1,
                 1 << 20);
    flags.addInt("cap-sustain", 2,
                 "consecutive over-cap windows required to throttle",
                 1, 1 << 16);
    flags.addInt("cap-recover", 2,
                 "consecutive calm windows required to recover", 1,
                 1 << 16);
    flags.addInt("cap-tick", 256,
                 "fleet decisions between arbiter re-split ticks", 1,
                 1 << 24);
    flags.addDouble("thermal-cap", 0.0,
                    "die temperature limit in C for the reactive "
                    "thermal cap governor (0 = off)",
                    0.001, 1000.0);
    flags.addDouble("thermal-step", 2.0,
                    "thermal governor PWR_INC/PWR_DEC step in watts",
                    0.001, 1e6);
    flags.addBool("thermal-wavg",
                  "smooth the thermal governor's temperature input "
                  "with a weighted moving average");
}

/**
 * @return false (after printing the problem) on an invalid
 *     --cap-policy; the range checks on the numeric flags were already
 *     enforced by FlagParser::parse.
 */
bool
parsePowercapOptions(const FlagParser &flags,
                     powercap::ArbiterOptions *arbiter,
                     powercap::ThermalCapOptions *thermal)
{
    arbiter->budgetWatts = flags.getDouble("power-cap");
    const std::string policy = flags.getString("cap-policy");
    if (policy == "equal") {
        arbiter->policy = powercap::SplitPolicy::EqualShare;
    } else if (policy == "usage") {
        arbiter->policy = powercap::SplitPolicy::UsageProportional;
    } else if (policy == "weighted") {
        arbiter->policy = powercap::SplitPolicy::PriorityWeighted;
    } else {
        std::cerr << "unknown --cap-policy '" << policy
                  << "' (expected equal, usage or weighted)\n";
        return false;
    }
    arbiter->window =
        static_cast<std::size_t>(flags.getInt("cap-window"));
    arbiter->sustain =
        static_cast<std::size_t>(flags.getInt("cap-sustain"));
    arbiter->recover =
        static_cast<std::size_t>(flags.getInt("cap-recover"));
    arbiter->tickEvery =
        static_cast<std::size_t>(flags.getInt("cap-tick"));

    const double limit = flags.getDouble("thermal-cap");
    thermal->enabled = limit > 0.0;
    if (thermal->enabled) {
        thermal->limit = limit;
        thermal->stepWatts = flags.getDouble("thermal-step");
        thermal->weightedAvg = flags.getBool("thermal-wavg");
    }
    return true;
}

int
cmdTrain(int argc, const char *const *argv)
{
    FlagParser flags("gpupm train: fit the Random Forest predictor");
    flags.addPath("out", "model.rf", "output model path");
    flags.addInt("corpus", 128, "training kernels");
    flags.addInt("trees", 60, "trees per forest");
    flags.addInt("stride", 1, "use every k-th configuration");
    flags.addInt("jobs", 0,
                 "dataset-generation and forest-fitting workers (0 = "
                 "hardware concurrency, 1 = serial; output is identical)",
                 0, 4096);
    if (!flags.parse(argc, argv)) {
        std::cerr << (flags.helpRequested() ? "" : flags.error() + "\n")
                  << flags.usage();
        return flags.helpRequested() ? 0 : 2;
    }

    ml::TrainerOptions opts;
    opts.corpusSize = static_cast<std::size_t>(flags.getInt("corpus"));
    opts.forest.numTrees = flags.getInt("trees");
    opts.configStride = flags.getInt("stride");
    opts.jobs = static_cast<std::size_t>(std::max(0, flags.getInt("jobs")));
    ml::TrainingReport report;
    std::cout << "training on " << opts.corpusSize << " kernels...\n";
    auto rf = ml::trainRandomForestPredictor(opts, &report);
    std::cout << "OOB time MAPE " << fmt(report.timeOobMapePct, 1)
              << "%, power MAPE " << fmt(report.powerOobMapePct, 1)
              << "% over " << report.datasetRows << " rows\n";

    const std::string out = flags.getPath("out");
    std::ofstream os(out);
    if (!os) {
        std::cerr << "cannot write " << out << "\n";
        return 1;
    }
    ml::saveRandomForest(*rf, os);
    std::cout << "model saved to " << out << "\n";
    return 0;
}

std::shared_ptr<const ml::PerfPowerPredictor>
makePredictor(const std::string &kind, const std::string &model_path,
              const hw::ApuParams &params)
{
    if (kind == "perfect")
        return std::make_shared<ml::GroundTruthPredictor>(params);
    if (kind == "err15")
        return std::make_shared<ml::NoisyOraclePredictor>(0.15, 0.10,
                                                          0xe44ULL, params);
    if (kind == "err5")
        return std::make_shared<ml::NoisyOraclePredictor>(0.05, 0.05,
                                                          0xe44ULL, params);
    if (kind == "rf") {
        if (!model_path.empty()) {
            std::ifstream is(model_path);
            if (!is) {
                std::cerr << "cannot read model " << model_path << "\n";
                return nullptr;
            }
            return ml::loadRandomForest(is);
        }
        std::cerr << "training Random Forest (pass --model to reuse a "
                     "saved one)...\n";
        return ml::trainRandomForestPredictor();
    }
    std::cerr << "unknown predictor '" << kind
              << "' (perfect|rf|err15|err5)\n";
    return nullptr;
}

int
cmdRun(int argc, const char *const *argv)
{
    FlagParser flags("gpupm run: execute governors over benchmarks");
    flags.addString("bench", "all", "benchmark name or 'all'");
    flags.addChoice("governor", "mpc", "decision policy",
                    {"turbo", "ppk", "mpc", "oracle", "pi"});
    flags.addString("predictor", "perfect", "perfect|rf|err15|err5");
    flags.addString("model", "", "saved .rf model (with --predictor rf)");
    addHwModelFlag(flags);
    flags.addString("horizon", "adaptive", "adaptive|full|fixed");
    flags.addInt("fixed-horizon", 4, "length for --horizon fixed");
    flags.addDouble("alpha", 0.05, "performance-loss bound");
    flags.addDouble("deadline", 0.0,
                    "deadline-QoS slack factor over the baseline run "
                    "time (> 0 enables deadline QoS; 0 = uniform "
                    "alpha)",
                    0.0, 1e6);
    flags.addInt("runs", 2, "MPC executions after profiling");
    flags.addDouble("phases", 0.0, "CPU-phase fraction between kernels");
    flags.addPath("trace", "", "write 1 ms telemetry CSV here");
    flags.addBool("no-overhead", "do not charge decision latency");
    flags.addDouble("power-cap", 0.0,
                    "per-run power cap in watts for the MPC governor "
                    "(0 = uncapped)",
                    0.001, 1e6);
    addOnlineFlags(flags);
    TraceOutputs::addFlags(flags);
    if (!flags.parse(argc, argv)) {
        std::cerr << (flags.helpRequested() ? "" : flags.error() + "\n")
                  << flags.usage();
        return flags.helpRequested() ? 0 : 2;
    }

    TraceOutputs trace_outputs(flags);

    const std::string gov_kind = flags.getString("governor");
    std::shared_ptr<const ml::PerfPowerPredictor> predictor;
    if (gov_kind == "ppk" || gov_kind == "mpc") {
        predictor = makePredictor(flags.getString("predictor"),
                                  flags.getString("model"),
                                  getHwModel(flags)->params());
        if (!predictor)
            return 2;
    }

    // Close the loop: route MPC predictions through a hot-swappable
    // handle and interpose the drift-triggered learner in the
    // provenance path. Synchronous refits keep the single-threaded run
    // path deterministic (swaps land at known decision boundaries).
    std::optional<online::ForestHandle> forest_handle;
    std::optional<online::OnlineLearner> learner;
    if (flags.getBool("online-learn")) {
        auto rf = std::dynamic_pointer_cast<
            const ml::RandomForestPredictor>(predictor);
        if (gov_kind != "mpc" || !rf) {
            std::cerr << "--online-learn requires --governor mpc with "
                         "--predictor rf\n";
            return 2;
        }
        forest_handle.emplace(std::move(rf));
        predictor =
            std::make_shared<online::AdaptivePredictor>(*forest_handle);
        online::OnlineOptions oopts = parseOnlineOptions(flags);
        oopts.synchronous = true;
        learner.emplace(*forest_handle, oopts, trace_outputs.log());
    }

    std::vector<std::string> names;
    if (flags.getString("bench") == "all")
        names = workload::benchmarkNames();
    else
        names.push_back(flags.getString("bench"));

    mpc::MpcOptions mpc_opts;
    mpc_opts.qos.alpha = flags.getDouble("alpha");
    if (flags.getDouble("deadline") > 0.0)
        mpc_opts.qos = mpc::QosSpec::deadline(flags.getDouble("deadline"));
    if (flags.getString("horizon") == "full")
        mpc_opts.horizonMode = mpc::HorizonMode::Full;
    else if (flags.getString("horizon") == "fixed")
        mpc_opts.horizonMode = mpc::HorizonMode::Fixed;
    mpc_opts.fixedHorizon =
        static_cast<std::size_t>(flags.getInt("fixed-horizon"));
    if (flags.getBool("no-overhead")) {
        mpc_opts.chargeOverhead = false;
        mpc_opts.overhead = policy::OverheadModel::free();
    }

    const hw::HardwareModelPtr hw_model = getHwModel(flags);
    sim::Simulator sim{hw_model};
    TextTable t({"benchmark", "scheme", "energy (J)", "time (ms)",
                 "energy savings", "speedup"});
    sim::RunResult last;
    for (const auto &name : names) {
        auto app = workload::makeBenchmark(name);
        if (flags.getDouble("phases") > 0.0)
            app = workload::withCpuPhases(app, flags.getDouble("phases"));

        policy::TurboCoreGovernor turbo{hw_model};
        auto baseline = sim.run(app, turbo);
        const Throughput target =
            mpc_opts.qos.scaleTarget(baseline.throughput());

        sim::RunResult r;
        if (gov_kind == "turbo") {
            r = baseline;
        } else if (gov_kind == "ppk") {
            policy::PpkGovernor gov(predictor, {}, hw_model);
            r = sim.run(app, gov, target);
        } else if (gov_kind == "mpc") {
            mpc::MpcGovernor gov(predictor, mpc_opts, hw_model);
            gov.setPowerCap(flags.getDouble("power-cap"));
            gov.setDecisionSink(learner ? static_cast<trace::DecisionSink *>(
                                              &*learner)
                                        : trace_outputs.log());
            sim.run(app, gov, target);
            for (int i = 0; i < flags.getInt("runs"); ++i)
                r = sim.run(app, gov, target);
        } else if (gov_kind == "pi") {
            policy::PiGovernor gov(hw_model);
            r = sim.run(app, gov, target);
        } else if (gov_kind == "oracle") {
            policy::TheoreticallyOptimalGovernor gov(app, hw_model);
            r = sim.run(app, gov, target);
        } else {
            std::cerr << "unknown governor '" << gov_kind << "'\n";
            return 2;
        }

        t.addRow({name, r.governorName, fmt(r.totalEnergy(), 3),
                  fmt(r.totalTime() * 1e3, 2),
                  fmtPct(sim::energySavingsPct(baseline, r)),
                  fmt(sim::speedup(baseline, r), 3)});
        last = r;
    }
    t.print(std::cout);

    if (learner) {
        const auto st = learner->stats();
        std::cout << "online: " << st.observed << " observed, "
                  << st.triggers << " drift triggers, " << st.retrains
                  << " retrains, " << st.swaps
                  << " swaps (serving generation "
                  << forest_handle->ordinal() << ")\n";
    }

    const std::string trace_path = flags.getPath("trace");
    if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        if (!os) {
            std::cerr << "cannot write " << trace_path << "\n";
            return 1;
        }
        telemetry::PowerTrace::fromRun(last, hw_model->params())
            .writeCsv(os);
        std::cout << "telemetry of the last run written to "
                  << trace_path << "\n";
    }
    return trace_outputs.finish();
}

std::vector<std::string>
splitCommaList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
cmdSweep(int argc, const char *const *argv)
{
    FlagParser flags(
        "gpupm sweep: fan benchmark x governor jobs across a "
        "work-stealing pool (deterministic: output is bit-identical "
        "for every --jobs value)");
    flags.addString("bench", "all", "benchmark name or 'all'");
    flags.addString("governors", "turbo,ppk,mpc",
                    "comma list of turbo|ppk|mpc|oracle");
    flags.addString("predictor", "perfect", "perfect|rf|err15|err5");
    flags.addString("model", "", "saved .rf model (with --predictor rf)");
    addHwModelFlag(flags);
    flags.addInt("jobs", 0,
                 "worker threads (0 = hardware concurrency, 1 = serial)",
                 0, 4096);
    flags.addInt("seed", 0x5eed, "root seed for per-job RNG streams");
    flags.addInt("runs", 2, "MPC executions after profiling", 1, 10000);
    TraceOutputs::addFlags(flags);
    if (!flags.parse(argc, argv)) {
        std::cerr << (flags.helpRequested() ? "" : flags.error() + "\n")
                  << flags.usage();
        return flags.helpRequested() ? 0 : 2;
    }

    TraceOutputs trace_outputs(flags);

    const auto governors = splitCommaList(flags.getString("governors"));
    if (governors.empty()) {
        std::cerr << "no governors given\n";
        return 2;
    }

    bool needs_predictor = false;
    for (const auto &g : governors)
        needs_predictor |= (g == "ppk" || g == "mpc");
    std::shared_ptr<const ml::PerfPowerPredictor> predictor;
    if (needs_predictor) {
        predictor = makePredictor(flags.getString("predictor"),
                                  flags.getString("model"),
                                  getHwModel(flags)->params());
        if (!predictor)
            return 2;
    }

    std::vector<std::string> names;
    if (flags.getString("bench") == "all")
        names = workload::benchmarkNames();
    else
        names.push_back(flags.getString("bench"));

    // The job grid, in deterministic (benchmark-major) order. Each
    // managed-policy job measures its own Turbo baseline internally.
    std::vector<exec::SimJob> jobs;
    for (const auto &name : names) {
        const auto app = workload::makeBenchmark(name);
        for (const auto &g : governors) {
            exec::SimJob job;
            job.app = app;
            job.predictor = predictor;
            job.mpcRuns = std::max(1, flags.getInt("runs"));
            // Session = job index: provenance from concurrent jobs
            // stays attributable and sorts deterministically.
            job.decisionSink = trace_outputs.log();
            job.traceSession = jobs.size();
            if (g == "turbo")
                job.policy = exec::SimJob::Policy::Turbo;
            else if (g == "ppk")
                job.policy = exec::SimJob::Policy::Ppk;
            else if (g == "mpc")
                job.policy = exec::SimJob::Policy::Mpc;
            else if (g == "oracle")
                job.policy = exec::SimJob::Policy::Oracle;
            else {
                std::cerr << "unknown governor '" << g << "'\n";
                return 2;
            }
            jobs.push_back(std::move(job));
        }
    }

    exec::SweepOptions sopts;
    sopts.jobs = static_cast<std::size_t>(std::max(0, flags.getInt("jobs")));
    sopts.rootSeed = static_cast<std::uint64_t>(flags.getInt("seed"));
    exec::SweepEngine engine(sopts);
    std::cerr << "[sweep] " << jobs.size() << " jobs on "
              << engine.jobs() << " workers\n";
    const auto results = exec::runSweep(engine, jobs, getHwModel(flags));

    TextTable t({"benchmark", "scheme", "energy (J)", "time (ms)",
                 "throughput (Ginst/s)"});
    for (const auto &r : results) {
        t.addRow({r.appName, r.governorName, fmt(r.totalEnergy(), 3),
                  fmt(r.totalTime() * 1e3, 2),
                  fmt(r.throughput() / 1e9, 3)});
    }
    t.print(std::cout);
    return trace_outputs.finish();
}

int
cmdFleet(int argc, const char *const *argv)
{
    FlagParser flags(
        "gpupm fleet: serve N concurrent governor sessions through a "
        "bounded request queue, each with its own per-kernel prediction "
        "cache (deterministic: the decision trace is byte-identical for "
        "every --jobs value)");
    flags.addString("bench", "all",
                    "benchmark name, comma list, or 'all' (assigned "
                    "round-robin over sessions)");
    flags.addString("predictor", "rf", "perfect|rf|err15|err5");
    flags.addString("model", "", "saved .rf model (with --predictor rf)");
    addHwModelFlag(flags);
    flags.addString("hw-models", "",
                    "comma list of catalog model names cycled over "
                    "sessions in creation order (overrides --hw-model "
                    "per session; heterogeneous fleets)");
    flags.addString("deadlines", "",
                    "comma list of deadline slack factors cycled over "
                    "sessions (0 entries keep uniform-alpha QoS)");
    flags.addInt("sessions", 8, "concurrent governor sessions", 1,
                 1 << 20);
    flags.addInt("jobs", 1, "worker threads draining the request queue",
                 1, 4096);
    flags.addInt("synthetic", 0,
                 "draw sessions from a pool of synthetic random "
                 "applications with up to this many kernels (0 = use "
                 "--bench; massive fleets want small synthetic apps)",
                 0, 1 << 20);
    addShardFlags(flags);
    addPowercapFlags(flags);
    flags.addString("cap-weights", "",
                    "comma list of per-session priority weights, "
                    "cycled over sessions (with --cap-policy weighted)");
    flags.addInt("runs", 2, "MPC executions after profiling", 1, 10000);
    flags.addInt("queue", 1024, "request-queue capacity", 1, 1 << 20);
    flags.addInt("cache", 32,
                 "per-session kernel prediction-cache cap (0 disables "
                 "caching for that session)",
                 0, 1 << 20);
    flags.addInt("seed", 0x5eed, "root seed for per-session RNG streams");
    flags.addDouble("phase-jitter", 0.0,
                    "upper bound on per-session CPU-phase fractions "
                    "(each session draws its own)");
    flags.addBool("deterministic",
                  "print only byte-reproducible output (suppress "
                  "wall-clock metrics)");
    flags.addPath("trace", "",
                  "write the decision trace (JSON lines) here");
    addOnlineFlags(flags);
    TraceOutputs::addFlags(flags);
    if (!flags.parse(argc, argv)) {
        std::cerr << (flags.helpRequested() ? "" : flags.error() + "\n")
                  << flags.usage();
        return flags.helpRequested() ? 0 : 2;
    }

    TraceOutputs trace_outputs(flags);

    auto predictor = makePredictor(flags.getString("predictor"),
                                   flags.getString("model"),
                                   getHwModel(flags)->params());
    if (!predictor)
        return 2;

    serve::FleetOptions fopts;
    fopts.server.model = getHwModel(flags);
    for (const auto &m : splitCommaList(flags.getString("hw-models"))) {
        // Resolved here (fatal with candidates on a typo) so a bad
        // name fails before the fleet spins up.
        fopts.hwModels.push_back(
            hw::HardwareCatalog::instance().get(m)->name());
    }
    for (const auto &d : splitCommaList(flags.getString("deadlines"))) {
        char *end = nullptr;
        const double factor = std::strtod(d.c_str(), &end);
        if (end == d.c_str() || *end != '\0' || factor < 0.0) {
            std::cerr << "--deadlines entries must be non-negative "
                         "numbers, got '"
                      << d << "'\n";
            return 2;
        }
        fopts.deadlines.push_back(factor);
    }
    fopts.server.jobs = static_cast<std::size_t>(flags.getInt("jobs"));
    fopts.server.shards =
        static_cast<std::size_t>(flags.getInt("shards"));
    fopts.server.shed = parseShedOptions(flags);
    if (!parsePowercapOptions(flags, &fopts.server.powercap,
                              &fopts.session.thermalCap))
        return 2;
    for (const auto &w : splitCommaList(flags.getString("cap-weights"))) {
        char *end = nullptr;
        const double weight = std::strtod(w.c_str(), &end);
        if (end == w.c_str() || *end != '\0' || !(weight > 0.0)) {
            std::cerr << "--cap-weights entries must be positive "
                         "numbers, got '"
                      << w << "'\n";
            return 2;
        }
        fopts.capWeights.push_back(weight);
    }
    fopts.server.queueCapacity =
        static_cast<std::size_t>(flags.getInt("queue"));
    fopts.session.optimizedRuns =
        static_cast<std::size_t>(flags.getInt("runs"));
    fopts.session.kernelCacheCap =
        static_cast<std::size_t>(flags.getInt("cache"));
    fopts.sessionCount = static_cast<std::size_t>(flags.getInt("sessions"));
    fopts.syntheticKernels =
        static_cast<std::size_t>(flags.getInt("synthetic"));
    fopts.cpuPhaseJitter = flags.getDouble("phase-jitter");
    fopts.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    fopts.decisionSink = trace_outputs.log();
    fopts.onlineLearn = flags.getBool("online-learn");
    fopts.online = parseOnlineOptions(flags);
    if (fopts.onlineLearn &&
        flags.getString("predictor") != "rf") {
        std::cerr << "--online-learn requires --predictor rf\n";
        return 2;
    }
    if (flags.getString("bench") != "all")
        fopts.apps = splitCommaList(flags.getString("bench"));

    const auto result = serve::runFleet(std::move(predictor), fopts);

    std::cout << "fleet: " << result.sessions << " sessions, "
              << result.decisions << " decisions\n";
    if (!fopts.hwModels.empty()) {
        // sessionsPerModel is an ordered map and session creation is
        // deterministic, so this line is byte-reproducible.
        std::cout << "models:";
        for (const auto &[name, count] : result.sessionsPerModel)
            std::cout << " " << name << "=" << count;
        std::cout << "\n";
    }
    if (!fopts.deadlines.empty()) {
        std::cout << "deadlines: " << result.deadlineMisses
                  << " missed runs\n";
    }
    if (fopts.server.powercap.enabled()) {
        // Cap accounting is part of the deterministic decision stream
        // (violations and arbiter ticks are functions of the trace, not
        // of worker scheduling), so this line stays byte-reproducible.
        std::cout << "powercap: budget "
                  << fmt(fopts.server.powercap.budgetWatts, 1)
                  << " W, " << result.capLimitedDecisions
                  << " cap-limited decisions, " << result.capViolations
                  << " violations, " << result.arbiterTicks
                  << " arbiter ticks\n";
    }
    if (!flags.getBool("deterministic")) {
        if (fopts.onlineLearn) {
            // Async retrain timing depends on scheduling, so the online
            // summary stays out of the byte-reproducible output.
            const auto &st = result.online;
            std::cout << "online: " << st.observed << " observed, "
                      << st.triggers << " drift triggers, "
                      << st.retrains << " retrains, " << st.swaps
                      << " swaps (serving generation "
                      << result.forestGeneration << ")\n";
        }
        std::cout << "throughput: "
                  << fmt(result.decisionsPerSecond, 0)
                  << " decisions/s over "
                  << fmt(result.wallSeconds * 1e3, 1) << " ms\n";
        const auto &h = result.metrics.histograms;
        if (auto it = h.find("serve.decision_latency_ns"); it != h.end())
            std::cout << "decision latency: p50 "
                      << fmt(it->second.p50 / 1e3, 1) << " us, p99 "
                      << fmt(it->second.p99 / 1e3, 1) << " us\n";
        if (auto it = h.find("serve.queue_depth"); it != h.end())
            std::cout << "queue depth: mean " << fmt(it->second.mean, 2)
                      << ", p99 " << fmt(it->second.p99, 1) << "\n";
        if (fopts.server.shed.enabled) {
            const auto &sc = result.metrics.counters;
            const auto cnt = [&](const char *k) {
                const auto it = sc.find(k);
                return it != sc.end() ? it->second : std::uint64_t{0};
            };
            std::cout << "shed: " << result.degradedDecisions
                      << " degraded decisions, "
                      << cnt("serve.shed_enters") << " enters, "
                      << cnt("serve.shed_exits") << " exits\n";
        }
        // The row count depends on cache/memo hit patterns, which vary
        // with worker scheduling - hence outside --deterministic.
        const auto &c = result.metrics.counters;
        const auto rows = c.find("ml.rows");
        std::cout << "inference: forest rows "
                  << (rows != c.end() ? rows->second : std::uint64_t{0})
                  << "\n";
    }

    const std::string trace_path = flags.getPath("trace");
    if (!trace_path.empty()) {
        std::ofstream os(trace_path, std::ios::binary);
        if (!os) {
            std::cerr << "cannot write " << trace_path << "\n";
            return 1;
        }
        os << serve::serializeFleetTrace(result.trace);
        std::cout << "decision trace written to " << trace_path << "\n";
    }
    return trace_outputs.finish();
}

int
cmdReplay(int argc, const char *const *argv)
{
    FlagParser flags(
        "gpupm replay: re-drive a recorded decision JSONL dump "
        "through a governor offline - with the original predictor and "
        "options the MPC decisions reproduce byte-identically; with a "
        "different governor, hardware model or QoS the divergence "
        "count quantifies the counterfactual");
    flags.addPath("trace", "", "decision JSONL dump to replay "
                               "(required; from --trace/"
                               "--trace-decisions)");
    flags.addChoice("governor", "mpc", "replaying policy",
                    {"mpc", "turbo", "pi"});
    flags.addChoice("predictor", "rf", "mpc only; must match the "
                                       "recording run's predictor "
                                       "(offline replay has no kernel "
                                       "ground truth, so only rf works)",
                    {"rf"});
    flags.addString("model", "", "saved .rf model (with --predictor rf)");
    addHwModelFlag(flags);
    flags.addString("horizon", "adaptive", "adaptive|full|fixed");
    flags.addInt("fixed-horizon", 4, "length for --horizon fixed");
    flags.addDouble("alpha", 0.05, "performance-loss bound");
    flags.addDouble("deadline", 0.0,
                    "deadline-QoS slack factor (> 0 enables deadline "
                    "QoS; 0 = uniform alpha)",
                    0.0, 1e6);
    flags.addBool("no-overhead", "do not charge decision latency");
    flags.addBool("expect-identical",
                  "exit nonzero unless every replayed decision matches "
                  "the recorded one (CI determinism check)");
    if (!flags.parse(argc, argv)) {
        std::cerr << (flags.helpRequested() ? "" : flags.error() + "\n")
                  << flags.usage();
        return flags.helpRequested() ? 0 : 2;
    }

    const std::string trace_path = flags.getPath("trace");
    if (trace_path.empty()) {
        std::cerr << "--trace is required\n" << flags.usage();
        return 2;
    }
    std::ifstream is(trace_path, std::ios::binary);
    if (!is) {
        std::cerr << "cannot read " << trace_path << "\n";
        return 1;
    }
    auto records = trace::readDecisionJsonl(is);
    if (records.empty()) {
        std::cerr << "no decision records in " << trace_path << "\n";
        return 1;
    }

    exec::ReplayOptions ropts;
    ropts.model = getHwModel(flags);
    const std::string gov_kind = flags.getString("governor");
    if (gov_kind == "turbo")
        ropts.governor = exec::ReplayGovernor::Turbo;
    else if (gov_kind == "pi")
        ropts.governor = exec::ReplayGovernor::Pi;
    else
        ropts.governor = exec::ReplayGovernor::Mpc;
    ropts.mpc.qos.alpha = flags.getDouble("alpha");
    if (flags.getDouble("deadline") > 0.0)
        ropts.mpc.qos =
            mpc::QosSpec::deadline(flags.getDouble("deadline"));
    ropts.qos = ropts.mpc.qos;
    if (flags.getString("horizon") == "full")
        ropts.mpc.horizonMode = mpc::HorizonMode::Full;
    else if (flags.getString("horizon") == "fixed")
        ropts.mpc.horizonMode = mpc::HorizonMode::Fixed;
    ropts.mpc.fixedHorizon =
        static_cast<std::size_t>(flags.getInt("fixed-horizon"));
    if (flags.getBool("no-overhead")) {
        ropts.mpc.chargeOverhead = false;
        ropts.mpc.overhead = policy::OverheadModel::free();
    }

    std::shared_ptr<const ml::PerfPowerPredictor> predictor;
    if (ropts.governor == exec::ReplayGovernor::Mpc) {
        // Counter-driven replay carries no kernel ground truth, so the
        // oracle predictors (perfect/err*) cannot run here - only rf,
        // enforced by the flag's choice list above.
        predictor = makePredictor(flags.getString("predictor"),
                                  flags.getString("model"),
                                  ropts.model->params());
        if (!predictor)
            return 2;
    }

    const auto report =
        exec::replayRecords(std::move(records), predictor, ropts);

    std::cout << "replay: " << report.decisions << " decisions through "
              << report.governors << " " << report.governorName
              << " governor(s) on " << ropts.model->name() << "\n"
              << "divergences: " << report.divergences.size() << "\n";
    if (!report.divergences.empty()) {
        const auto &d = report.divergences.front();
        std::cout << "first divergence at record " << d.recordIndex
                  << ": recorded config " << d.configRecorded
                  << ", replayed " << d.configReplayed << "\n";
    }
    if (flags.getBool("expect-identical") && !report.identical()) {
        std::cerr << "replay diverged from the recorded decisions\n";
        return 1;
    }
    return 0;
}

serve::NetServer *g_netServer = nullptr;

extern "C" void
serveSignalHandler(int)
{
    // NetServer::stop is async-signal-safe (atomic store + eventfd
    // write), so a Ctrl-C drains connections and exits cleanly.
    if (g_netServer != nullptr)
        g_netServer->stop();
}

int
cmdServe(int argc, const char *const *argv)
{
    FlagParser flags(
        "gpupm serve: expose the sharded fleet decision server over a "
        "TCP wire protocol (length-prefixed binary frames, epoll event "
        "loop; drive it with gpupm-client)");
    flags.addString("listen", "127.0.0.1:0",
                    "host:port to bind (port 0 = kernel-assigned; the "
                    "bound port is printed on startup)");
    flags.addString("predictor", "rf", "perfect|rf|err15|err5");
    flags.addString("model", "", "saved .rf model (with --predictor rf)");
    flags.addInt("jobs", 1, "worker threads draining the request queue",
                 1, 4096);
    flags.addInt("runs", 2,
                 "default MPC executions after profiling (Open frames "
                 "may override)",
                 1, 10000);
    flags.addInt("queue", 1024, "server-wide request-queue capacity", 1,
                 1 << 20);
    flags.addInt("cache", 32,
                 "default per-session kernel prediction-cache cap", 0,
                 1 << 20);
    flags.addInt("max-sessions", 4096,
                 "per-shard resident-session LRU cap", 1, 1 << 24);
    addHwModelFlag(flags);
    addShardFlags(flags);
    addPowercapFlags(flags);
    if (!flags.parse(argc, argv)) {
        std::cerr << (flags.helpRequested() ? "" : flags.error() + "\n")
                  << flags.usage();
        return flags.helpRequested() ? 0 : 2;
    }

    const std::string listen = flags.getString("listen");
    const auto colon = listen.rfind(':');
    if (colon == std::string::npos) {
        std::cerr << "--listen wants host:port, got '" << listen
                  << "'\n";
        return 2;
    }
    const std::string host = listen.substr(0, colon);
    int port = 0;
    try {
        port = std::stoi(listen.substr(colon + 1));
    } catch (...) {
        port = -1;
    }
    if (port < 0 || port > 65535) {
        std::cerr << "invalid port in --listen '" << listen << "'\n";
        return 2;
    }

    auto predictor = makePredictor(flags.getString("predictor"),
                                   flags.getString("model"),
                                   getHwModel(flags)->params());
    if (!predictor)
        return 2;

    serve::FleetServerOptions sopts;
    sopts.model = getHwModel(flags);
    sopts.jobs = static_cast<std::size_t>(flags.getInt("jobs"));
    sopts.shards = static_cast<std::size_t>(flags.getInt("shards"));
    sopts.shed = parseShedOptions(flags);
    serve::NetServerOptions nopts;
    if (!parsePowercapOptions(flags, &sopts.powercap,
                              &nopts.session.thermalCap))
        return 2;
    // Live tenants come and go, so the network server re-splits the
    // budget from measured usage rather than registration-time demand
    // (forfeiting byte-reproducibility, which TCP timing already
    // forfeits).
    sopts.powercap.liveUsage = true;
    sopts.queueCapacity =
        static_cast<std::size_t>(flags.getInt("queue"));
    sopts.sessions.maxSessions =
        static_cast<std::size_t>(flags.getInt("max-sessions"));
    serve::FleetServer server(std::move(predictor), sopts);

    nopts.host = host;
    nopts.port = static_cast<std::uint16_t>(port);
    nopts.session.optimizedRuns =
        static_cast<std::size_t>(flags.getInt("runs"));
    nopts.session.kernelCacheCap =
        static_cast<std::size_t>(flags.getInt("cache"));
    serve::NetServer net(server, nopts);

    g_netServer = &net;
    std::signal(SIGINT, serveSignalHandler);
    std::signal(SIGTERM, serveSignalHandler);

    // Scripted callers (the CI smoke test) parse this line for the
    // resolved port, so keep the format stable and flush immediately.
    std::cout << "listening on " << host << ":" << net.port() << " ("
              << sopts.shards << " shards, " << sopts.jobs << " jobs)"
              << std::endl;

    net.run();
    g_netServer = nullptr;

    const auto snap = server.metrics();
    const auto cnt = [&](const char *k) {
        const auto it = snap.counters.find(k);
        return it != snap.counters.end() ? it->second
                                         : std::uint64_t{0};
    };
    std::cout << "served " << cnt("serve.decisions") << " decisions ("
              << cnt("serve.shed_degraded_decisions")
              << " degraded) over " << net.accepted()
              << " connections, " << cnt("serve.rejected_requests")
              << " rejected\n";
    if (const auto *arbiter = server.capArbiter()) {
        std::cout << "powercap: budget "
                  << fmt(arbiter->budgetWatts(), 1) << " W, "
                  << arbiter->violations() << " violations, "
                  << arbiter->ticks() << " arbiter ticks\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: gpupm "
                     "<list|info|train|run|sweep|fleet|serve|replay> "
                     "[flags]\n"
                     "       gpupm <subcommand> --help\n";
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "list")
        return cmdList();
    if (cmd == "info")
        return cmdInfo();
    if (cmd == "train")
        return cmdTrain(argc - 1, argv + 1);
    if (cmd == "run")
        return cmdRun(argc - 1, argv + 1);
    if (cmd == "sweep")
        return cmdSweep(argc - 1, argv + 1);
    if (cmd == "fleet")
        return cmdFleet(argc - 1, argv + 1);
    if (cmd == "serve")
        return cmdServe(argc - 1, argv + 1);
    if (cmd == "replay")
        return cmdReplay(argc - 1, argv + 1);
    std::cerr << "unknown subcommand '" << cmd << "'\n";
    return 2;
}
