/**
 * @file
 * Windowed-error load-shed controller for the fleet decision server.
 *
 * Overload policy in the style of HPDCS/NAS-powercap's windowed error
 * accumulator with hysteresis (powercap heuristics: accumulate the
 * signed error against a setpoint over a fixed window, act only when
 * whole windows agree, and require sustained calm before acting
 * back): the server samples its queue depth at admission, accumulates
 * `depth - targetDepth` over `window` samples, and flips into
 * *degraded* mode only after `sustain` consecutive over-target
 * windows. While degraded, workers skip the MPC governor and apply
 * the paper's fail-safe configuration [P7, NB2, DPM4, 8CU]
 * (hw::ConfigSpace::failSafe) so queued work drains at near-zero
 * decision cost instead of queuing unboundedly. The controller exits
 * degraded mode only after `recover` consecutive windows whose mean
 * depth sits below `recoverFraction * targetDepth` - the asymmetric
 * thresholds are the hysteresis band that keeps a loaded server from
 * flapping between modes at window granularity.
 *
 * Thread model: sample() is called by every producer thread at
 * admission; window rollover is resolved under a small mutex (at most
 * once per `window` samples), and the degraded flag itself is a
 * relaxed atomic that workers read per decision without taking any
 * lock. Transitions bump the serve.shed_enters / serve.shed_exits
 * telemetry counters when a registry is attached.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace gpupm::telemetry {
class Registry;
}

namespace gpupm::serve {

/** Shed policy knobs; defaults follow the NAS-powercap idiom. */
struct ShedOptions
{
    /** Master switch; a disabled controller never degrades. */
    bool enabled = false;
    /** Admission samples per decision window. */
    std::size_t window = 64;
    /** Queue-depth setpoint: sustained depth above this sheds. */
    std::size_t targetDepth = 256;
    /**
     * Exit threshold as a fraction of targetDepth: a recovery window
     * must average below targetDepth * recoverFraction. The gap
     * between 1.0 and this fraction is the hysteresis band.
     */
    double recoverFraction = 0.25;
    /** Consecutive over-target windows required to enter shedding. */
    std::size_t sustain = 2;
    /** Consecutive calm windows required to exit shedding. */
    std::size_t recover = 2;
};

class ShedController
{
  public:
    explicit ShedController(const ShedOptions &opts,
                            telemetry::Registry *registry = nullptr);

    /**
     * Record one admission-time queue-depth observation and roll the
     * window over when it fills. Safe from any number of threads.
     */
    void sample(std::size_t depth);

    /** Whether decisions should currently run the fail-safe path. */
    bool degraded() const
    {
        return _degraded.load(std::memory_order_relaxed);
    }

    const ShedOptions &options() const { return _opts; }

    /** Completed enter/exit transition counts (tests, stats). */
    std::uint64_t enters() const
    {
        return _enters.load(std::memory_order_relaxed);
    }
    std::uint64_t exits() const
    {
        return _exits.load(std::memory_order_relaxed);
    }

  private:
    void rollWindowLocked();

    ShedOptions _opts;
    std::atomic<bool> _degraded{false};
    std::atomic<std::uint64_t> _enters{0};
    std::atomic<std::uint64_t> _exits{0};

    std::mutex _mutex;
    std::size_t _samples = 0;     ///< Samples in the open window.
    std::int64_t _netError = 0;   ///< Sum of depth - targetDepth.
    std::uint64_t _depthSum = 0;  ///< Sum of depths (mean at rollover).
    std::size_t _overWindows = 0; ///< Consecutive over-target windows.
    std::size_t _calmWindows = 0; ///< Consecutive recovery windows.

    telemetry::Registry *_registry = nullptr;
};

} // namespace gpupm::serve
