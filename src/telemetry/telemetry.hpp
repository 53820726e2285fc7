/**
 * @file
 * Unified telemetry API: power traces, counters, histograms and trace
 * sinks behind one registry (the gpupm::telemetry subsystem).
 *
 * Three kinds of observability data flow through here:
 *
 *  - PowerTrace reconstructs the paper's 1 ms power-controller sample
 *    stream (Sec. V) from a finished simulation run: each invocation
 *    contributes its host CPU phase, exposed optimization interval and
 *    kernel interval at measured average powers, with package
 *    temperature integrated by the RC thermal model.
 *  - Counter / Histogram are the *live* side: named monotonic counters
 *    and fixed-bucket histograms that concurrent subsystems (the fleet
 *    decision server, its sessions' prediction caches) bump while they
 *    run. Counters are lock-free atomics; histograms use per-bucket
 *    atomics, so recording from many threads is wait-free and
 *    TSan-clean.
 *  - Registry additionally carries the process's decision-provenance
 *    sink (trace::DecisionSink), so one object wires all telemetry for
 *    a server or CLI invocation.
 *
 * Snapshot/reset semantics: snapshot() reads every cell with relaxed
 * atomic loads - each individual value is a real value that was current
 * at some point during the call, but the snapshot is not a cross-
 * counter atomic cut (concurrent increments may land between reads).
 * reset() zeroes every cell the same way. Both are safe to call while
 * writers are active; tests pin these semantics.
 */

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "hw/thermal.hpp"
#include "sim/simulator.hpp"
#include "trace/decision.hpp"

namespace gpupm::telemetry {

/** Execution interval kinds, as a power-trace annotation. */
enum class PhaseKind : char
{
    CpuPhase = 'P', ///< Host work between kernels (Fig. 1).
    Governor = 'O', ///< Exposed optimizer latency.
    Kernel = 'K',   ///< GPU kernel execution.
};

/** One power-controller sample. */
struct PowerSample
{
    Seconds timestamp = 0.0; ///< Sample time since run start.
    Watts cpuPower = 0.0;
    Watts gpuPower = 0.0; ///< GPU plane incl. NB and DRAM interface.
    Celsius temperature = 0.0;
    std::size_t invocationIndex = 0;
    PhaseKind phase = PhaseKind::Kernel;

    Watts totalPower() const { return cpuPower + gpuPower; }
};

/**
 * A sampled run. Samples are taken at the *end* of each interval tick,
 * with partial final ticks weighted by their true duration so that
 * energy integrates exactly.
 */
class PowerTrace
{
  public:
    /**
     * Reconstruct the sample stream of @p run.
     *
     * @param run A completed simulation run.
     * @param params APU parameters (thermal constants).
     * @param interval Sampling interval; the paper uses 1 ms.
     */
    static PowerTrace fromRun(const sim::RunResult &run,
                              const hw::ApuParams &params,
                              Seconds interval = 1e-3);

    const std::vector<PowerSample> &samples() const { return _samples; }
    Seconds interval() const { return _interval; }

    /** Trapezoid-free exact integration (piecewise-constant power). */
    Joules cpuEnergy() const { return _cpuEnergy; }
    Joules gpuEnergy() const { return _gpuEnergy; }
    Joules totalEnergy() const { return _cpuEnergy + _gpuEnergy; }

    Watts peakPower() const;
    Watts averagePower() const;
    Celsius peakTemperature() const;

    /** Whether any sample exceeds the package TDP. */
    bool exceedsTdp(Watts tdp) const;

    /** Emit "timestamp_ms,cpu_w,gpu_w,total_w,temp_c,invocation,phase". */
    void writeCsv(std::ostream &os) const;

  private:
    std::vector<PowerSample> _samples;
    Seconds _interval = 1e-3;
    Joules _cpuEnergy = 0.0;
    Joules _gpuEnergy = 0.0;
};

/** A named monotonic counter; increments are relaxed atomics. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/**
 * Fixed-bucket histogram over non-negative integer samples (batch
 * sizes, nanosecond latencies). Buckets are powers of two scaled by a
 * per-histogram unit: bucket k counts samples in [2^k, 2^(k+1)) units,
 * bucket 0 counts [0, 2). 48 buckets cover any nanosecond latency a
 * run can produce. Percentiles interpolate linearly inside the bucket,
 * which is exact for the small integer samples (batch sizes) that land
 * one-per-bucket in the low buckets and a <=2x-resolution estimate for
 * wide latency tails - adequate for p50/p99 reporting.
 */
class Histogram
{
  public:
    static constexpr std::size_t numBuckets = 48;

    void record(std::uint64_t sample);

    std::uint64_t count() const
    {
        return _count.load(std::memory_order_relaxed);
    }

    std::uint64_t sum() const
    {
        return _sum.load(std::memory_order_relaxed);
    }

    double mean() const;

    /** Percentile estimate; @p p in [0, 100]. 0 when empty. */
    double percentile(double p) const;

    void reset();

    /** Raw bucket counts (diagnostics and snapshot rendering). */
    std::array<std::uint64_t, numBuckets> buckets() const;

  private:
    std::array<std::atomic<std::uint64_t>, numBuckets> _buckets{};
    std::atomic<std::uint64_t> _count{0};
    std::atomic<std::uint64_t> _sum{0};
};

/** One registry cell as seen by snapshot(). */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;

    struct HistogramSummary
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        double mean = 0.0;
        double p50 = 0.0;
        double p95 = 0.0;
        double p99 = 0.0;
    };
    std::map<std::string, HistogramSummary> histograms;
};

/**
 * Named registry of counters and histograms, plus the process's
 * decision-provenance sink.
 *
 * counter()/histogram() create on first use and return a reference
 * with a stable address for the registry's lifetime, so hot paths
 * resolve the name once and then increment lock-free. Creation takes a
 * mutex; recording never does.
 *
 * The decision sink is not owned: the caller that attaches it (the CLI
 * trace exporter, a test) keeps it alive past every decider.
 */
class Registry
{
  public:
    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Relaxed-consistent view of every cell; see file comment. */
    Snapshot snapshot() const;

    /** Zero every registered cell (cells stay registered). */
    void reset();

    /** Attach (or detach with null) the decision-provenance sink. */
    void
    setDecisionSink(trace::DecisionSink *sink)
    {
        _decisionSink.store(sink, std::memory_order_release);
    }

    /** The attached sink; null when provenance is not being captured. */
    trace::DecisionSink *
    decisionSink() const
    {
        return _decisionSink.load(std::memory_order_acquire);
    }

  private:
    mutable std::mutex _mutex;
    std::map<std::string, std::unique_ptr<Counter>> _counters;
    std::map<std::string, std::unique_ptr<Histogram>> _histograms;
    std::atomic<trace::DecisionSink *> _decisionSink{nullptr};
};

} // namespace gpupm::telemetry
