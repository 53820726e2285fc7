/**
 * @file
 * Low-overhead structured span tracing (the gpupm::trace subsystem).
 *
 * Hot paths (the simulator loop, MPC decisions, batched forest walks,
 * sweep jobs, the fleet server) open a Span around the work they do;
 * spans record into per-thread ring buffers and are exported after the
 * run as Chrome trace-event JSON (chrome://tracing / Perfetto).
 *
 * Cost model - the contract every instrumentation site relies on:
 *
 *  - Tracing disabled (the default): constructing a Span is one relaxed
 *    atomic load and one predictable branch; nothing else happens. No
 *    clock reads, no allocation, no stores. This is what keeps the
 *    disabled overhead of the governor hot path under the 1% budget.
 *  - Tracing enabled: a span costs two steady_clock reads plus one
 *    64-byte store into a thread-local ring buffer. The publish is a
 *    single release store of the ring head; no locks are taken on the
 *    recording path (the only mutex is per-thread buffer registration,
 *    paid once per thread per tracing session).
 *
 * Buffers never overwrite published events: when a thread's ring is
 * full, further events are counted as dropped and discarded, so a
 * reader can snapshot concurrently without racing writers (slots below
 * the acquired head are immutable). Determinism: nothing in this module
 * feeds back into decision logic - timestamps exist only in the trace
 * output, so golden decision traces are byte-identical with tracing on
 * or off.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gpupm::trace {

/** Subsystem that emitted a span (the Chrome "cat" field). */
enum class Category : std::uint8_t
{
    Sim,   ///< Closed-loop simulator.
    Mpc,   ///< MPC governor and optimizer.
    Ml,    ///< Predictor / forest inference.
    Exec,  ///< Sweep engine jobs.
    Serve, ///< Fleet server (queue, sessions).
    Bench, ///< Experiment harnesses.
    Online, ///< Drift detection, retraining, forest hot-swap.
};

/** Stable lower-case name for a category. */
const char *categoryName(Category cat);

/**
 * One completed span. Name and argument names must be string literals
 * (or otherwise outlive the tracing session): events store the
 * pointers, never copies.
 */
struct SpanEvent
{
    const char *name = nullptr;
    const char *arg0Name = nullptr; ///< Null when unset.
    const char *arg1Name = nullptr;
    double arg0 = 0.0;
    double arg1 = 0.0;
    std::uint64_t startNs = 0; ///< Since Tracer::start().
    std::uint64_t durNs = 0;
    std::uint32_t tid = 0; ///< Registration-order thread id (1-based).
    Category cat = Category::Sim;
};

/**
 * Process-global tracing session. start()/stop()/collect() are
 * externally synchronized (one controlling thread); emit() and Span
 * construction are safe from any thread at any time.
 */
class Tracer
{
  public:
    /** Per-thread event capacity when start() is given none. */
    static constexpr std::size_t defaultCapacity = 1 << 16;

    /** The no-op branch every instrumentation site is gated on. */
    static bool
    enabled()
    {
        return _enabled.load(std::memory_order_relaxed);
    }

    /**
     * Begin a tracing session: reset the time origin, retire buffers
     * from any previous session, and enable recording. Restarting an
     * active session discards its events.
     */
    static void start(std::size_t per_thread_capacity = defaultCapacity);

    /** Disable recording; collected events remain available. */
    static void stop();

    /**
     * Snapshot every published event of the current session, sorted by
     * (startNs, tid). Safe while writers are active: only events whose
     * publish the snapshot observed are included.
     */
    static std::vector<SpanEvent> collect();

    /** Events discarded because a thread's ring filled up. */
    static std::uint64_t dropped();

    /** Nanoseconds since the session origin (0 when never started). */
    static std::uint64_t nowNs();

    /**
     * Record a completed span with explicit timing. Used by Span and by
     * call sites that measure an interval themselves (e.g. the fleet
     * queue wait, whose start predates the worker that records it).
     * No-op when tracing is disabled.
     */
    static void emit(Category cat, const char *name,
                     std::uint64_t start_ns, std::uint64_t dur_ns,
                     const char *arg0_name = nullptr, double arg0 = 0.0,
                     const char *arg1_name = nullptr, double arg1 = 0.0);

  private:
    friend class Span;
    static std::atomic<bool> _enabled;
};

/**
 * RAII span: records [construction, destruction) under the given name.
 * When tracing is disabled, construction and destruction are each one
 * relaxed load and branch.
 */
class Span
{
  public:
    Span(Category cat, const char *name)
    {
        if (Tracer::enabled()) [[unlikely]]
            open(cat, name);
    }

    Span(Category cat, const char *name, const char *arg0_name,
         double arg0)
        : Span(cat, name)
    {
        _arg0Name = arg0_name;
        _arg0 = arg0;
    }

    /** Attach up to two numeric arguments (names must be literals);
     *  further calls are silently dropped. */
    void
    arg(const char *name, double value)
    {
        if (!_live)
            return;
        if (!_arg0Name) {
            _arg0Name = name;
            _arg0 = value;
        } else if (!_arg1Name) {
            _arg1Name = name;
            _arg1 = value;
        }
    }

    ~Span()
    {
        if (_live) [[unlikely]]
            close();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void open(Category cat, const char *name);
    void close();

    const char *_name = nullptr;
    const char *_arg0Name = nullptr;
    const char *_arg1Name = nullptr;
    double _arg0 = 0.0;
    double _arg1 = 0.0;
    std::uint64_t _start = 0;
    Category _cat = Category::Sim;
    bool _live = false;
};

} // namespace gpupm::trace
