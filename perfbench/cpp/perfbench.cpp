/**
 * @file
 * gpupm_perfbench: the decision-serving benchmark.
 *
 * One open-loop run of one workload against the public serving API,
 * printed as a single `PERFBENCH {...}` JSON line (see README.md in
 * this directory for the workloads and the metric definitions):
 *
 *   fleet-warm   in-process FleetServer, jobs 1 / shards 1, 64 warmed
 *                long-lived tenants, ~20k decisions/s (memo hits).
 *   fleet-churn  in-process FleetServer, jobs 2 / shards 2, 64 slots of
 *                short random applications evicted and replaced,
 *                ~500 decisions/s (memo misses, broker, steals).
 *   wire-mixed   `gpupm serve` over loopback, 64 long-lived tenants on
 *                2 connections, ~5k decisions/s, plus ~20 Opens/s of
 *                fresh sessions on the same event loop.
 *
 * With --trace 1 the run reports per-layer numbers instead. In-process
 * it measures an untraced window and then a traced one (trace::Tracer).
 * The wire workload takes its layer numbers from outside the server
 * process: Stats-frame counters, Open round trips, the client's codec
 * calls and the server's per-thread CPU under /proc.
 *
 * The load generator is one thread pinned to the first CPU the process
 * may use; every server thread runs on the others (nothing is pinned
 * with fewer than two). Arrivals are dealt round-robin to tenants; a
 * tenant's next request waits while its previous one is in flight, and
 * its latency still counts from its due time.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "host.hpp"
#include "machinery.hpp"
#include "reference.hpp"

#include "ml/serialize.hpp"
#include "ml/simd.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "trace/trace.hpp"
#include "workload/benchmarks.hpp"
#include "workload/training.hpp"

using namespace gpupm;
namespace pb = perfbench;

namespace {

const std::uint64_t g_processStartNs = pb::wallNs();

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
/** Optimized runs of a long-lived tenant: it never finishes a run. */
constexpr std::uint32_t kLongLivedRuns = 1000000;
/** Setups per untraced run; setup_s is their median. */
constexpr int kSetupReps = 3;
/** How long a run waits after its last due time for late answers. */
constexpr double kGraceSeconds = 3.0;
/** Untimed traced warm-up that allocates every thread's span ring. */
constexpr double kTraceBurstSeconds = 0.3;
/** Upper bound on the traced window (span rings stay small). */
constexpr double kTraceMaxSeconds = 4.0;
/** fleet-churn's application population and its fixed seed. */
constexpr std::size_t kChurnPool = 192;
constexpr std::uint64_t kChurnPoolSeed = 0xc0de;
/** wire-mixed's offered load: decisions and fresh Opens per second. */
constexpr double kWireRate = 5000.0;
constexpr double kWireOpenRate = 20.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string model;
    std::string gpupm;
    /** The CPUs the process started with (restored after the window). */
    std::vector<int> allCpus;
    /** The generator's CPU and the server's CPUs; empty = not pinned. */
    std::vector<int> genCpus, serverCpus;
};

/** Name -> (value, unit), printed in insertion order of names. */
using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct Outcome
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t mismatches = 0;
    Metrics e2e;
    Metrics layer;
    Metrics context;
};

double
median(std::vector<double> v)
{
    return pb::percentile(std::move(v), 50.0);
}

std::uint64_t
counter(const telemetry::Snapshot &s, const std::string &name)
{
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

std::pair<std::uint64_t, std::uint64_t>
histCountSum(const telemetry::Snapshot &s, const std::string &name)
{
    const auto it = s.histograms.find(name);
    return it == s.histograms.end()
               ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
               : std::pair{it->second.count, it->second.sum};
}

std::shared_ptr<const ml::PerfPowerPredictor>
loadModel(const std::string &path, double *seconds)
{
    const std::uint64_t t0 = pb::wallNs();
    std::shared_ptr<const ml::PerfPowerPredictor> p;
    {
        trace::Span span(trace::Category::Bench, "bench.loadModel");
        std::ifstream is(path);
        if (!is)
            throw std::runtime_error("cannot read model " + path);
        p = ml::loadRandomForest(is);
    }
    *seconds = static_cast<double>(pb::wallNs() - t0) / 1e9;
    return p;
}

/** Per-request bookkeeping of an open-loop window. */
struct Req
{
    enum Status : std::uint8_t { Pending, Answered, Lost, Rejected };
    std::uint64_t dueNs = 0;
    std::uint64_t sentNs = 0;
    std::uint64_t doneNs = 0;
    std::uint32_t tenant = 0;
    std::uint32_t key = 0;
    std::uint32_t ordinal = 0;
    Status status = Pending;
    bool atArrival = false; ///< Sent when due, not queued behind its tenant.
    pb::Dec dec;
};

/** What a window measured. */
struct WindowStats
{
    std::size_t attempted = 0;
    std::size_t answered = 0;
    std::size_t failed = 0;
    std::size_t rejected = 0, lost = 0, unanswered = 0;
    double serverCpuNs = 0.0;
    double ingressCpuNs = 0.0; ///< Generator API calls / event loop.
    double workerCpuNs = 0.0;
    double evaluations = 0.0;
    std::size_t opens = 0;
    std::uint64_t wireBytes = 0;
    double codecNs = 0.0; ///< Client time in `serve/wire` calls.
    std::size_t frames = 0; ///< Frames the client encoded or decoded.
    std::vector<pb::TimedSample> latencyUs; ///< By due-time offset.
    std::vector<double> latenessUs;
    double stealPct = 0.0;
    /** VmHWM of the process hosting the server, read right after the
     *  window. In-process the window's own per-request arrays are taken
     *  off: they live in their own mappings, so their share is exact. */
    double peakRssMb = 0.0;
    std::uint64_t traceStartNs = 0; ///< Tracer clock at window start.
    telemetry::Snapshot before, after;
    ml::SimdRowStats rowsBefore{}, rowsAfter{};
};

double
rowCount(const ml::SimdRowStats &s)
{
    return static_cast<double>(s.scalar + s.fallback + s.avx2);
}

/** One open-loop window: schedule, tenant gate, lateness, steal. */
class OpenLoop
{
  public:
    OpenLoop(std::uint64_t seed, double rate, double seconds,
             std::size_t tenants)
        : _gate(tenants), _seconds(seconds)
    {
        _reqs.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
        pb::poissonSchedule(seed, rate, seconds, [&](std::uint64_t due) {
            Req q;
            q.dueNs = due; // an offset until run() adds the start time
            q.tenant = static_cast<std::uint32_t>(_reqs.size() % tenants);
            _reqs.push_back(q);
        });
    }

    pb::MappedVector<Req> &reqs() { return _reqs; }
    pb::TenantGate &gate() { return _gate; }
    /** Steady-clock time of the window's first due time. */
    std::uint64_t startNs() const { return _t0; }
    /** Resident bytes of the per-request array. */
    std::size_t bytes() const { return pb::pageBytes(_reqs.size() * sizeof(Req)); }

    /**
     * Run the window: @p poll drains answers (and returns how many
     * requests are in flight), @p send issues one request. Stops when
     * every request is answered or the grace period is over.
     */
    template <typename Poll, typename Send>
    void
    run(Poll &&poll, Send &&send, WindowStats &w)
    {
        const pb::CpuTimes c0 = pb::readCpuTimes();
        _t0 = pb::wallNs() + 1000000;
        for (Req &q : _reqs)
            q.dueNs += _t0;
        const std::uint64_t deadline =
            _t0 + static_cast<std::uint64_t>((_seconds + kGraceSeconds) * 1e9);
        std::size_t next = 0;
        for (;;) {
            const std::size_t inflight = poll();
            if (next == _reqs.size() && inflight == 0 && _gate.queued() == 0)
                break;
            const std::uint64_t now = pb::wallNs();
            while (next < _reqs.size() && _reqs[next].dueNs <= now) {
                Req &q = _reqs[next];
                if (_gate.arrive(q.tenant, next)) {
                    q.atArrival = true;
                    send(next);
                }
                ++next;
            }
            if (now > deadline)
                break;
        }
        const pb::CpuTimes c1 = pb::readCpuTimes();
        w.stealPct = c1.total > c0.total
                         ? 100.0 * static_cast<double>(c1.steal - c0.steal) /
                               static_cast<double>(c1.total - c0.total)
                         : 0.0;
    }

    /** Count outcomes and collect latency and lateness into @p w. */
    void
    summarize(WindowStats &w) const
    {
        w.attempted = _reqs.size();
        for (const Req &q : _reqs) {
            if (q.status == Req::Answered) {
                ++w.answered;
                w.evaluations += q.dec.evaluations;
                w.latencyUs.push_back(
                    {q.dueNs - _t0, static_cast<double>(q.doneNs - q.dueNs) / 1e3});
            } else {
                ++w.failed;
                ++(q.status == Req::Rejected ? w.rejected
                   : q.status == Req::Lost   ? w.lost
                                             : w.unanswered);
            }
            if (q.atArrival && q.sentNs >= q.dueNs)
                w.latenessUs.push_back(
                    static_cast<double>(q.sentNs - q.dueNs) / 1e3);
        }
    }

  private:
    pb::TenantGate _gate;
    double _seconds;
    pb::MappedVector<Req> _reqs;
    std::uint64_t _t0 = 0;
};

/**
 * The end-to-end metrics and run context of the untraced window @p w.
 * Wall-clock latency is the load generator's view, a per-layer metric:
 * under hypervisor steal it swings several-fold between runs minutes
 * apart, while server CPU per decision holds still. Its percentiles are
 * medians over the window's 1-s intervals (a burst of steal spoils a
 * few seconds, not the run); whole-window figures go to the context.
 */
void
reportEndToEnd(Outcome &out, const WindowStats &w,
               const std::vector<double> &setups, const pb::ReferenceBook &book)
{
    out.e2e["setup_s"] = {median(setups), "s"};
    out.e2e["cpu_us_per_decision"] = {
        w.serverCpuNs / 1e3 / static_cast<double>(std::max<std::size_t>(1, w.answered)),
        "us"};
    out.e2e["peak_rss_mb"] = {w.peakRssMb, "MiB"};
    out.e2e["energy_savings_pct"] = {book.energySavingsPct(), "%"};
    out.e2e["perf_loss_pct"] = {book.perfLossPct(), "%"};

    constexpr std::uint64_t kInterval = 1000000000ULL;
    out.layer["loadgen.latency_p50_us"] = {
        pb::intervalPercentile(w.latencyUs, kInterval, 50), "us"};
    out.layer["loadgen.latency_p90_us"] = {
        pb::intervalPercentile(w.latencyUs, kInterval, 90), "us"};
    out.layer["loadgen.late_p99_us"] = {pb::percentile(w.latenessUs, 99), "us"};
    std::vector<double> all;
    for (const auto &s : w.latencyUs)
        all.push_back(s.value);
    for (int p : {50, 90, 99})
        out.context["latency.window_p" + std::to_string(p) + "_us"] = {
            pb::percentile(all, p), "us"};
    out.context["host.steal_pct"] = {w.stealPct, "%"};
    out.context["decisions"] = {static_cast<double>(w.answered), "count"};
    out.context["failed.rejected"] = {static_cast<double>(w.rejected), "count"};
    out.context["failed.lost"] = {static_cast<double>(w.lost), "count"};
    out.context["failed.unanswered"] = {static_cast<double>(w.unanswered),
                                        "count"};
}

/** Tracer-clock offset: steady ns minus Tracer::nowNs(). */
std::atomic<std::uint64_t> g_traceOffsetNs{0};

std::uint64_t
toTraceNs(std::uint64_t steadyNs)
{
    const std::uint64_t off = g_traceOffsetNs.load(std::memory_order_relaxed);
    return steadyNs > off ? steadyNs - off : 0;
}

void
startTracer(std::size_t capacity)
{
    trace::Tracer::start(capacity);
    g_traceOffsetNs.store(pb::wallNs() - trace::Tracer::nowNs());
}

/** The traced part of a `--trace 1` run. */
struct TracedPass
{
    WindowStats burst, window;
    std::vector<trace::SpanEvent> events;
    std::uint64_t dropped = 0;
};

/**
 * Start the tracer with rings sized for @p rate (~8 spans per decision
 * on the busiest thread, doubled), run an untimed burst so every thread
 * allocates and zero-fills its ring, then the traced window.
 * @p window(seconds, tag, stats) runs one open-loop window.
 */
template <typename Window>
TracedPass
runTraced(double rate, double seconds, Window &&window)
{
    TracedPass t;
    const double ts = std::min(seconds, kTraceMaxSeconds);
    startTracer(static_cast<std::size_t>(
                    rate * (ts + kTraceBurstSeconds + kGraceSeconds) * 16) +
                4096);
    window(kTraceBurstSeconds, 0x2, t.burst);
    window(ts, 0x3, t.window);
    trace::Tracer::stop();
    t.events = trace::Tracer::collect();
    t.dropped = trace::Tracer::dropped();
    return t;
}

/**
 * Spans and forest rows of a traced setup. The warm-up's cold decisions
 * walk the forest on every workload, so `ml.ns_per_row` is measured even
 * where the timed window never misses the memo.
 */
struct SetupTrace
{
    std::vector<trace::SpanEvent> events;
    double rows = 0.0;
    std::uint64_t dropped = 0;

    void
    start()
    {
        startTracer(std::size_t{1} << 17);
        _rows0 = ml::simdRowStats();
    }
    void
    stop()
    {
        trace::Tracer::stop();
        events = trace::Tracer::collect();
        dropped = trace::Tracer::dropped();
        rows = rowCount(ml::simdRowStats()) - rowCount(_rows0);
    }

  private:
    ml::SimdRowStats _rows0{};
};

/**
 * Per-layer metrics shared by every workload's `--trace 1` pass. Without
 * spans (@p events and @p setup null: the wire workload, whose server
 * runs in another process) the metrics that only spans give read 0.
 */
struct LayerInputs
{
    const WindowStats *untraced = nullptr;
    const WindowStats *traced = nullptr;
    const std::vector<trace::SpanEvent> *events = nullptr;
    std::uint64_t dropped = 0;
    double loadS = 0.0;
    std::vector<double> openUs;
    const SetupTrace *setup = nullptr;
};

const std::set<std::string> kDetachedSpans = {"serve.queueWait",
                                              "bench.request"};

/** Self time of the `ml.*` spans in @p spans. */
double
mlSelfNs(const std::map<std::string, pb::SpanStat> &spans)
{
    double ns = 0.0;
    for (const auto &[name, s] : spans)
        if (name.rfind("ml.", 0) == 0)
            ns += static_cast<double>(s.selfNs);
    return ns;
}

void
fillLayers(Outcome &out, const LayerInputs &in)
{
    const WindowStats &w = *in.untraced;
    const WindowStats &tw = *in.traced;
    const double dec = std::max<double>(1.0, static_cast<double>(w.answered));
    const double tdec = std::max<double>(1.0, static_cast<double>(tw.answered));
    const auto delta = [&](const char *name) {
        return static_cast<double>(counter(w.after, name) -
                                   counter(w.before, name));
    };

    const bool traced = in.events != nullptr;
    std::vector<trace::SpanEvent> inWindow;
    if (traced)
        for (const auto &e : *in.events)
            if (e.startNs >= tw.traceStartNs)
                inWindow.push_back(e);
    const auto spans = pb::aggregateSpans(inWindow, kDetachedSpans);
    const auto stat = [&](const char *name) -> const pb::SpanStat & {
        static const pb::SpanStat empty;
        const auto it = spans.find(name);
        return it == spans.end() ? empty : it->second;
    };
    const double mlNs = mlSelfNs(spans);
    double selfNs = 0.0;
    for (const auto &[name, s] : spans)
        if (!kDetachedSpans.count(name))
            selfNs += static_cast<double>(s.selfNs);
    const double setupMlNs =
        traced ? mlSelfNs(pb::aggregateSpans(in.setup->events, kDetachedSpans))
               : 0.0;
    const double setupRows = traced ? in.setup->rows : 0.0;
    const double stepNs = static_cast<double>(stat("serve.step").totalNs);
    const double idleUs = traced ? (tw.workerCpuNs - stepNs) / 1e3 / tdec : 0.0;
    const double tracedCpuUs = tw.serverCpuNs / 1e3 / tdec;
    const double cpuUs = w.serverCpuNs / 1e3 / dec;
    const double trows = rowCount(tw.rowsAfter) - rowCount(tw.rowsBefore);

    auto &L = out.layer;
    L["serve.queue_wait_p50_us"] = {
        pb::percentile(stat("serve.queueWait").durationsUs, 50), "us"};
    L["serve.step_self_us"] = {
        static_cast<double>(stat("serve.step").selfNs) / 1e3 / tdec, "us"};
    L["serve.step_p99_us"] = {
        pb::percentile(stat("serve.step").durationsUs, 99), "us"};
    L["serve.worker_cpu_us_per_decision"] = {w.workerCpuNs / 1e3 / dec, "us"};
    L["serve.ingress_cpu_us_per_decision"] = {w.ingressCpuNs / 1e3 / dec, "us"};
    L["serve.idle_cpu_us_per_decision"] = {idleUs, "us"};
    L["serve.queue_steals_per_decision"] = {delta("serve.queue_steals") / dec,
                                            "count"};
    L["serve.failures"] = {
        static_cast<double>(counter(tw.after, "serve.rejected_requests") +
                            counter(tw.after, "serve.lost_sessions")),
        "count"};
    L["serve.open_p50_us"] = {pb::percentile(in.openUs, 50), "us"};
    L["serve.opens_per_1k_decisions"] = {
        1000.0 * static_cast<double>(w.opens) / dec, "count"};

    const double hits = delta("serve.cache_hit_queries");
    const double misses = delta("serve.cache_miss_queries");
    L["memo.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0,
                           "ratio"};
    L["memo.miss_rows_per_decision"] = {misses / dec, "count"};
    L["memo.kernel_evictions"] = {delta("serve.kernel_evictions"), "count"};

    const double flushes =
        delta("broker.flush_full") + delta("broker.flush_all_waiting") +
        delta("broker.flush_deadline") + delta("broker.flush_stolen");
    const auto [rc0, rs0] = histCountSum(w.before, "broker.batch_requests");
    const auto [rc1, rs1] = histCountSum(w.after, "broker.batch_requests");
    L["broker.requests_per_flush"] = {
        rc1 > rc0 ? static_cast<double>(rs1 - rs0) /
                        static_cast<double>(rc1 - rc0)
                  : 0.0,
        "count"};
    L["broker.deadline_flush_share"] = {
        flushes > 0 ? delta("broker.flush_deadline") / flushes : 0.0, "ratio"};
    L["broker.stolen_flush_share"] = {
        flushes > 0 ? delta("broker.flush_stolen") / flushes : 0.0, "ratio"};

    L["mpc.decide_self_us"] = {
        static_cast<double>(stat("mpc.decide").selfNs) / 1e3 / tdec, "us"};
    L["mpc.observe_us"] = {
        static_cast<double>(stat("mpc.observe").totalNs) / 1e3 / tdec, "us"};
    L["mpc.evaluations_per_decision"] = {w.evaluations / dec, "count"};

    L["ml.walk_self_us_per_decision"] = {mlNs / 1e3 / tdec, "us"};
    L["ml.rows_per_decision"] = {
        (rowCount(w.rowsAfter) - rowCount(w.rowsBefore)) / dec, "count"};
    L["ml.ns_per_row"] = {traced && trows + setupRows > 0
                              ? (mlNs + setupMlNs) / (trows + setupRows)
                              : 0.0,
                          "ns"};
    L["ml.load_s"] = {in.loadS, "s"};

    L["wire.bytes_per_decision"] = {static_cast<double>(w.wireBytes) / dec,
                                    "B"};
    L["wire.codec_ns_per_frame"] = {
        w.frames > 0 ? w.codecNs / static_cast<double>(w.frames) : 0.0, "ns"};
    L["trace.overhead_pct"] = {
        traced && cpuUs > 0 ? 100.0 * (tracedCpuUs / cpuUs - 1.0) : 0.0, "%"};
    L["trace.unattributed_us_per_decision"] = {
        traced ? tracedCpuUs - selfNs / 1e3 / tdec - idleUs : 0.0, "us"};
    L["trace.dropped"] = {
        static_cast<double>(in.dropped + (traced ? in.setup->dropped : 0)),
        "count"};
}

// ---------------------------------------------------------------------
// In-process workloads: fleet-warm and fleet-churn.
// ---------------------------------------------------------------------

class FleetBench
{
  public:
    FleetBench(const FleetBench &) = delete;
    FleetBench &operator=(const FleetBench &) = delete;

    FleetBench(const Args &a, bool churn) : _a(a), _churn(churn)
    {
        _jobs = churn ? 2 : 1;
        _shards = churn ? 2 : 1;
        _rate = churn ? 500.0 : 20000.0;
    }

    void
    run(Outcome &out)
    {
        std::vector<double> setups, loads;
        SetupTrace setupTrace;
        if (_a.trace)
            setupTrace.start();
        const int reps = _a.trace ? 1 : kSetupReps;
        for (int r = 0; r < reps; ++r) {
            teardown(); // the previous repetition, before the clock starts
            const std::uint64_t t0 = r == 0 ? g_processStartNs : pb::wallNs();
            double load = 0.0;
            setup(&load);
            setups.push_back(static_cast<double>(pb::wallNs() - t0) / 1e9);
            loads.push_back(load);
        }
        if (_a.trace)
            setupTrace.stop();
        pb::pinSelf(_a.genCpus);

        WindowStats w;
        window(_a.seconds, 0x1, w);
        out.attempted = w.attempted;
        out.failed = w.failed;

        TracedPass traced;
        if (_a.trace) {
            traced = runTraced(_rate, _a.seconds,
                               [this](double s, std::uint64_t tag,
                                      WindowStats &ws) { window(s, tag, ws); });
            out.attempted += traced.burst.attempted + traced.window.attempted;
            out.failed += traced.burst.failed + traced.window.failed;
        }

        _server->stop();
        pb::pinSelf(_a.allCpus);
        out.mismatches = _book.verify(_checks, _predictor, _a.allCpus.size());
        out.failed += out.mismatches;

        reportEndToEnd(out, w, setups, _book);

        if (_a.trace)
            fillLayers(out, {&w, &traced.window, &traced.events, traced.dropped,
                             median(loads), _openUs, &setupTrace});
    }

  private:
    struct Tenant
    {
        serve::SessionId id = 0;
        std::size_t key = 0;
        std::size_t decided = 0;
        std::size_t total = 0;
        /** Warm-up: decisions still to make closed-loop. */
        std::size_t warmLeft = 0;
        std::vector<pb::Check> warmChecks;
    };

    void
    teardown()
    {
        _server.reset();
        _predictor.reset();
        _tenants.clear();
        _checks.clear();
        _book = pb::ReferenceBook{};
        _pool.clear();
        _order.clear();
        _created = 0;
        _openUs.clear();
    }

    void
    setup(double *loadS)
    {
        if (_churn) {
            // A fixed population of short random applications, about as
            // many as one run opens, visited in a seed-shuffled order:
            // every run plays nearly the same mix, so its cost does not
            // swing with which apps a seed happened to draw.
            pb::Rng order(pb::streamSeed(_a.seed, 0x0bde));
            for (std::size_t p = 0; p < kChurnPool; ++p) {
                _pool.push_back(workload::randomApplication(
                    pb::streamSeed(kChurnPoolSeed, p), 24));
                _order.push_back(p);
            }
            for (std::size_t i = _order.size(); i > 1; --i)
                std::swap(_order[i - 1], _order[order.below(i)]);
        }
        pb::pinSelf(_a.serverCpus); // the server's pool inherits this mask
        _predictor = loadModel(_a.model, loadS);
        serve::FleetServerOptions so;
        so.jobs = _jobs;
        so.shards = _shards;
        so.sessions.maxSessions = 4096;
        _server = std::make_unique<serve::FleetServer>(_predictor, so);

        // Reference streams: one per benchmark (warm) or pool app
        // (churn); tenants of one stream decide identically.
        serve::SessionOptions opts;
        opts.optimizedRuns = _churn ? 2 : kLongLivedRuns;
        if (_churn) {
            for (const auto &app : _pool)
                _book.addEnergyTenant(_book.add(app, opts), 2);
        } else {
            for (const auto &n : workload::benchmarkNames())
                _book.add(workload::makeBenchmark(n), opts);
        }
        _tenants.resize(64);
        pb::Rng advance(pb::streamSeed(_a.seed, 0xad));
        for (std::size_t t = 0; t < _tenants.size(); ++t) {
            open(t);
            Tenant &tn = _tenants[t];
            if (_churn) {
                // Spread lifetimes so cold decisions arrive steadily.
                tn.warmLeft = advance.below(tn.total);
            } else {
                tn.warmLeft = 3 * (tn.total / (1 + kLongLivedRuns));
                _book.addEnergyTenant(tn.key, 2);
            }
        }
        warm();
    }

    /** Create tenant slot @p t's next session (generator thread). */
    void
    open(std::size_t t)
    {
        Tenant &tn = _tenants[t];
        workload::Application app;
        serve::SessionOptions opts;
        if (_churn) {
            tn.key = _order[_created % _order.size()];
            app = _pool[tn.key];
            opts.optimizedRuns = 2;
        } else {
            const auto &names = workload::benchmarkNames();
            app = workload::makeBenchmark(names[t % names.size()]);
            opts.optimizedRuns = kLongLivedRuns;
            tn.key = t % names.size();
        }
        ++_created;
        tn.total = (1 + opts.optimizedRuns) * app.trace.size();
        tn.decided = 0;
        const std::uint64_t c0 = pb::threadCpuNs();
        const std::uint64_t w0 = pb::wallNs();
        {
            trace::Span span(trace::Category::Bench, "bench.createSession");
            tn.id = _server->createSession(app, opts);
        }
        _openUs.push_back(static_cast<double>(pb::wallNs() - w0) / 1e3);
        _apiCpuNs += pb::threadCpuNs() - c0;
    }

    void
    replace(std::size_t t)
    {
        Tenant &tn = _tenants[t];
        const std::uint64_t c0 = pb::threadCpuNs();
        {
            trace::Span span(trace::Category::Bench, "bench.evict");
            _server->shardSessions(_server->shardOf(tn.id)).evict(tn.id);
        }
        _apiCpuNs += pb::threadCpuNs() - c0;
        open(t);
        ++_windowOpens;
    }

    /** Closed-loop warm-up: each tenant makes warmLeft decisions. */
    void
    warm()
    {
        std::atomic<std::size_t> left{0};
        for (std::size_t t = 0; t < _tenants.size(); ++t) {
            if (_tenants[t].warmLeft > 0) {
                ++left;
                warmStep(t, &left);
            }
        }
        while (left.load() > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        for (Tenant &tn : _tenants) {
            for (const auto &c : tn.warmChecks)
                _checks.push_back(c);
            tn.warmChecks.clear();
        }
    }

    void
    warmStep(std::size_t t, std::atomic<std::size_t> *left)
    {
        serve::DecisionRequest req;
        req.session = _tenants[t].id;
        req.onDone = [this, t, left](serve::SessionId,
                                     const serve::DecisionRecord *rec) {
            Tenant &tn = _tenants[t];
            if (rec != nullptr) {
                tn.warmChecks.push_back(
                    {static_cast<std::uint32_t>(tn.key),
                     static_cast<std::uint32_t>(tn.decided), pb::toDec(*rec)});
                ++tn.decided;
            }
            if (rec != nullptr && --tn.warmLeft > 0)
                warmStep(t, left);
            else
                left->fetch_sub(1);
        };
        _server->submit(std::move(req));
    }

    void
    window(double seconds, std::uint64_t tag, WindowStats &w)
    {
        // The peak before the window's arrays exist: setup's, when the
        // window never climbs above it.
        const double peak0 = pb::peakRssMb();
        OpenLoop loop(pb::streamSeed(_a.seed, tag), _rate, seconds,
                      _tenants.size());
        auto &reqs = loop.reqs();
        const std::size_t n = reqs.size();
        // Completion order, published by the callbacks; 0 = not yet.
        pb::MappedVector<std::atomic<std::uint32_t>> doneOrder(n + 1);
        std::atomic<std::uint32_t> doneWrite{0};
        std::size_t readPos = 0, inflight = 0;
        _windowOpens = 0;

        std::function<void(std::size_t)> send;
        const auto finish = [&](std::size_t tenant) {
            if (auto nxt = loop.gate().finish(tenant))
                send(*nxt);
        };
        send = [&](std::size_t r) {
            Req &q = reqs[r];
            Tenant &tn = _tenants[q.tenant];
            q.key = static_cast<std::uint32_t>(tn.key);
            q.ordinal = static_cast<std::uint32_t>(tn.decided);
            serve::DecisionRequest dr;
            dr.session = tn.id;
            dr.onDone = [&reqs, &doneOrder, &doneWrite, r](
                            serve::SessionId, const serve::DecisionRecord *rec) {
                Req &q = reqs[r];
                q.doneNs = pb::wallNs();
                if (rec != nullptr) {
                    q.dec = pb::toDec(*rec);
                    q.status = Req::Answered;
                } else {
                    q.status = Req::Lost;
                }
                trace::Tracer::emit(trace::Category::Bench, "bench.request",
                                    toTraceNs(q.sentNs), q.doneNs - q.sentNs);
                const std::uint32_t pos = doneWrite.fetch_add(1);
                doneOrder[pos].store(static_cast<std::uint32_t>(r + 1),
                                     std::memory_order_release);
            };
            const std::uint64_t c0 = pb::threadCpuNs();
            q.sentNs = pb::wallNs();
            bool ok;
            {
                trace::Span span(trace::Category::Bench, "bench.submit");
                ok = _server->trySubmit(std::move(dr));
            }
            _apiCpuNs += pb::threadCpuNs() - c0;
            if (ok) {
                ++inflight;
            } else {
                q.status = Req::Rejected;
                finish(q.tenant);
            }
        };
        const auto poll = [&]() -> std::size_t {
            for (std::uint32_t v;
                 (v = doneOrder[readPos].load(std::memory_order_acquire)) != 0;) {
                ++readPos;
                --inflight;
                const Req &q = reqs[v - 1];
                Tenant &tn = _tenants[q.tenant];
                if (q.status == Req::Answered) {
                    ++tn.decided;
                    if (_churn && tn.decided == tn.total)
                        replace(q.tenant);
                }
                finish(q.tenant);
            }
            return inflight;
        };

        const pid_t gen = pb::selfTid();
        const auto workerCpu = [gen] {
            std::uint64_t sum = 0;
            for (pid_t t : pb::selfTasks())
                if (t != gen)
                    sum += pb::taskCpuNs(t);
            return sum;
        };
        w.before = _server->metrics();
        w.rowsBefore = ml::simdRowStats();
        w.traceStartNs = toTraceNs(pb::wallNs());
        _apiCpuNs = 0;
        const std::uint64_t proc0 = pb::processCpuNs();
        const std::uint64_t gen0 = pb::threadCpuNs();
        const std::uint64_t work0 = workerCpu();
        loop.run(poll, send, w);
        // Wait out stragglers (answered after the grace period) so no
        // callback touches this window's state once it is gone.
        while (inflight > 0) {
            poll();
            std::this_thread::yield();
        }
        const std::uint64_t work1 = workerCpu();
        const std::uint64_t gen1 = pb::threadCpuNs();
        const std::uint64_t proc1 = pb::processCpuNs();
        w.after = _server->metrics();
        w.rowsAfter = ml::simdRowStats();
        w.workerCpuNs = static_cast<double>(work1 - work0);
        w.ingressCpuNs = static_cast<double>(_apiCpuNs);
        w.serverCpuNs = static_cast<double>((proc1 - proc0) - (gen1 - gen0)) +
                        static_cast<double>(_apiCpuNs);
        w.opens = _windowOpens;
        const std::size_t ownBytes =
            loop.bytes() + pb::pageBytes(doneOrder.size() * sizeof(doneOrder[0]));
        w.peakRssMb = std::max(peak0, pb::peakRssMb() - static_cast<double>(ownBytes) /
                                                           (1024.0 * 1024.0));
        loop.summarize(w);
        for (const Req &q : reqs)
            if (q.status == Req::Answered)
                _checks.push_back({q.key, q.ordinal, q.dec});
    }

    Args _a;
    bool _churn;
    std::size_t _jobs = 1, _shards = 1;
    double _rate = 0.0;
    std::shared_ptr<const ml::PerfPowerPredictor> _predictor;
    std::unique_ptr<serve::FleetServer> _server;
    std::vector<Tenant> _tenants;
    pb::ReferenceBook _book;
    std::vector<pb::Check> _checks;
    std::vector<double> _openUs;
    std::vector<workload::Application> _pool;
    std::vector<std::size_t> _order;
    std::size_t _created = 0;
    std::size_t _windowOpens = 0;
    std::uint64_t _apiCpuNs = 0;
};

// ---------------------------------------------------------------------
// wire-mixed: the wire protocol over loopback.
// ---------------------------------------------------------------------

/** A `gpupm serve` child on 127.0.0.1, pinned to the server CPUs. */
class ChildServer
{
  public:
    explicit ChildServer(const Args &a)
    {
        int fds[2];
        if (::pipe(fds) != 0)
            throw std::runtime_error("pipe failed");
        const std::vector<std::string> argv = {
            a.gpupm, "serve", "--listen", "127.0.0.1:0", "--jobs", "2",
            "--shards", "2", "--model", a.model, "--cache", "32",
            "--max-sessions", "4096"};
        _pid = ::fork();
        if (_pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            throw std::runtime_error("fork failed");
        }
        if (_pid == 0) {
            // Die with the benchmark, even when it is killed outright.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            pb::pinSelf(a.serverCpus);
            ::dup2(fds[1], STDOUT_FILENO);
            ::close(fds[0]);
            ::close(fds[1]);
            std::vector<char *> cargv;
            for (const auto &s : argv)
                cargv.push_back(const_cast<char *>(s.c_str()));
            cargv.push_back(nullptr);
            ::execv(cargv[0], cargv.data());
            std::_Exit(127);
        }
        ::close(fds[1]);
        _out = fds[0];
        try {
            _port = readBanner();
        } catch (...) {
            stop();
            throw;
        }
    }

    ChildServer(const ChildServer &) = delete;
    ChildServer &operator=(const ChildServer &) = delete;
    ~ChildServer() { stop(); }

    std::uint16_t port() const { return _port; }
    /** CPU time of the whole server process. */
    std::uint64_t cpuNs() const { return pb::processCpuNs(_pid); }
    /** CPU time of its main thread, which runs the epoll event loop. */
    std::uint64_t loopCpuNs() const { return pb::taskStatCpuNs(_pid, _pid); }
    double peakRssMb() const { return pb::peakRssMb(_pid); }

  private:
    /** Parse the port from "listening on HOST:PORT (...)". */
    std::uint16_t
    readBanner()
    {
        std::string line;
        char c;
        pollfd p{_out, POLLIN, 0};
        while (line.find('\n') == std::string::npos) {
            if (::poll(&p, 1, 120000) <= 0 || ::read(_out, &c, 1) != 1)
                throw std::runtime_error("gpupm serve did not start");
            line += c;
        }
        const auto paren = line.find(" (");
        const auto colon = line.rfind(':', paren);
        if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos)
            throw std::runtime_error("unexpected serve banner: " + line);
        return static_cast<std::uint16_t>(
            std::stoi(line.substr(colon + 1, paren - colon - 1)));
    }

    /** SIGTERM the server, drain its output and reap it. */
    void
    stop()
    {
        ::kill(_pid, SIGTERM);
        char buf[4096];
        while (::read(_out, buf, sizeof(buf)) > 0) {
        }
        ::close(_out);
        int status = 0;
        for (int i = 0; i < 200; ++i) {
            if (::waitpid(_pid, &status, WNOHANG) == _pid)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        ::kill(_pid, SIGKILL);
        ::waitpid(_pid, &status, 0);
    }

    pid_t _pid = -1;
    int _out = -1;
    std::uint16_t _port = 0;
};

class WireBench
{
  public:
    explicit WireBench(const Args &a) : _a(a) {}
    WireBench(const WireBench &) = delete;
    WireBench &operator=(const WireBench &) = delete;

    void
    run(Outcome &out)
    {
        std::vector<double> setups;
        pb::pinSelf(_a.genCpus); // the child pins itself to the server CPUs
        const int reps = _a.trace ? 1 : kSetupReps;
        for (int r = 0; r < reps; ++r) {
            disconnect();
            _server.reset();
            const std::uint64_t t0 = r == 0 ? g_processStartNs : pb::wallNs();
            _server = std::make_unique<ChildServer>(_a);
            connectAll();
            openAndWarm();
            setups.push_back(static_cast<double>(pb::wallNs() - t0) / 1e9);
        }

        WindowStats w;
        window(_a.seconds, 0x1, w);
        out.attempted = w.attempted;
        out.failed = w.failed;
        disconnect();
        _server.reset();

        pb::pinSelf(_a.allCpus);
        double loadS = 0.0;
        const auto predictor = loadModel(_a.model, &loadS);
        out.mismatches =
            _book.verify(_checks, predictor, _a.allCpus.size()) +
            _crossMismatches;
        out.failed += out.mismatches;

        reportEndToEnd(out, w, setups, _book);

        // No spans cross the process boundary: the layers are read from
        // the same window's Stats frames, /proc and the client's calls.
        if (_a.trace)
            fillLayers(out, {&w, &w, nullptr, 0, loadS, _openRttUs, nullptr});
    }

  private:
    static constexpr std::size_t kTenants = 64;

    struct Conn
    {
        int fd = -1;
        serve::wire::FrameReader reader;
        std::vector<std::uint8_t> out;
        std::size_t off = 0;
    };

    /** A long-lived tenant; its wire tenant id is its index + 1. */
    struct Tenant
    {
        std::size_t conn = 0;
        std::uint64_t session = 0;
        /** Benchmark index, which is also its reference stream. */
        std::size_t key = 0;
        std::uint32_t decided = 0;
        std::size_t req = kNone; ///< Window request in flight.
        std::size_t warmLeft = 0;
    };

    void
    connectAll()
    {
        for (Conn &c : _conns) {
            c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(_server->port());
            ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
            if (::connect(c.fd, reinterpret_cast<const sockaddr *>(&addr),
                          sizeof(addr)) != 0)
                throw std::runtime_error("connect to the server failed");
            const int one = 1;
            ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
            c.reader = serve::wire::FrameReader{};
            c.out.clear();
            c.off = 0;
        }
    }

    void
    disconnect()
    {
        for (Conn &c : _conns) {
            if (c.fd >= 0)
                ::close(c.fd);
            c.fd = -1;
        }
    }

    void
    flush(Conn &c)
    {
        while (c.off < c.out.size()) {
            const ssize_t n = ::send(c.fd, c.out.data() + c.off,
                                     c.out.size() - c.off, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && (errno == EAGAIN || errno == EINTR))
                    return;
                throw std::runtime_error("send to the server failed");
            }
            c.off += static_cast<std::size_t>(n);
            _bytes += static_cast<std::uint64_t>(n);
        }
        c.out.clear();
        c.off = 0;
    }

    /** Run one `serve/wire` call, adding its wall time to the codec
     *  total (@p frame: it encodes or decodes one frame). */
    template <typename F>
    auto
    codec(bool frame, F &&f)
    {
        struct Timer
        {
            std::uint64_t &sum;
            std::uint64_t t0 = pb::wallNs();
            ~Timer() { sum += pb::wallNs() - t0; }
        } timer{_codecNs};
        _frames += frame ? 1 : 0;
        return f();
    }

    void
    sendOpen(std::uint64_t tenantId, std::size_t bench, std::size_t conn)
    {
        serve::wire::OpenMsg m;
        m.tenant = tenantId;
        m.optimizedRuns = kLongLivedRuns;
        m.kernelCacheCap = 32;
        m.bench = workload::benchmarkNames()[bench];
        _openSent[tenantId] = pb::wallNs();
        Conn &c = _conns[conn];
        codec(true, [&] { serve::wire::encodeOpen(c.out, m); });
        flush(c);
    }

    void
    sendStep(std::size_t t)
    {
        Tenant &tn = _tenants[t];
        Conn &c = _conns[tn.conn];
        codec(true, [&] { serve::wire::encodeStep(c.out, {tn.session}); });
        flush(c);
    }

    /** The server's telemetry counters, from a Stats frame. */
    telemetry::Snapshot
    serverStats()
    {
        _stats.reset();
        Conn &c = _conns[0];
        serve::wire::encodeStatsReq(c.out);
        flush(c);
        pumpUntil([&] { return _stats.has_value(); });
        telemetry::Snapshot snap;
        for (const auto &[name, value] : _stats->entries)
            snap.counters[name] = value;
        return snap;
    }

    template <typename Done>
    void
    pumpUntil(Done &&done)
    {
        const std::uint64_t limit = pb::wallNs() + 120000000000ULL;
        while (!done()) {
            pump();
            if (pb::wallNs() > limit)
                throw std::runtime_error("the server did not answer in time");
        }
    }

    /** Read and dispatch everything the server has sent. */
    void
    pump()
    {
        std::uint8_t buf[65536];
        for (Conn &c : _conns) {
            flush(c);
            bool received = false;
            for (;;) {
                const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
                if (n > 0) {
                    _bytes += static_cast<std::uint64_t>(n);
                    codec(false, [&] {
                        c.reader.append(buf, static_cast<std::size_t>(n));
                    });
                    received = true;
                    continue;
                }
                if (n < 0 && (errno == EAGAIN || errno == EINTR))
                    break;
                throw std::runtime_error("connection to the server lost");
            }
            // Complete frames only appear after new bytes.
            while (received)
                if (auto f = codec(false, [&] { return c.reader.next(); }))
                    dispatch(*f);
                else
                    received = false;
            if (c.reader.corrupt())
                throw std::runtime_error("corrupt frame stream from the server");
        }
    }

    void
    dispatch(const serve::wire::Frame &f)
    {
        using serve::wire::MsgType;
        const std::uint64_t now = pb::wallNs();
        if (f.type == MsgType::Opened) {
            const auto m =
                codec(true, [&] { return serve::wire::decodeOpened(f.payload); });
            if (!m)
                throw std::runtime_error("bad Opened frame");
            const auto it = _openSent.find(m->tenant);
            if (it == _openSent.end())
                return; // answered after its window gave up on it
            _openRttUs.push_back(static_cast<double>(now - it->second) / 1e3);
            _openSent.erase(it);
            if (m->tenant <= kTenants) {
                Tenant &tn = _tenants[m->tenant - 1];
                tn.session = m->session;
                _bySession[tn.session] = m->tenant - 1;
            }
        } else if (f.type == MsgType::Decision) {
            const auto m = codec(
                true, [&] { return serve::wire::decodeDecision(f.payload); });
            if (!m)
                throw std::runtime_error("bad Decision frame");
            const std::size_t t = _bySession.at(m->session);
            Tenant &tn = _tenants[t];
            const pb::Dec d = pb::toDec(*m);
            crossCheck(tn.key, tn.decided, d);
            if (_window && tn.req != kNone) {
                Req &q = (*_window->reqs)[tn.req];
                q.doneNs = now;
                q.dec = d;
                q.status = Req::Answered;
            } else {
                _checks.push_back({static_cast<std::uint32_t>(tn.key),
                                   tn.decided, d});
            }
            ++tn.decided;
            if (_window)
                _window->answered(t);
            else
                warmNext(t);
        } else if (f.type == MsgType::Reject) {
            const auto m =
                codec(true, [&] { return serve::wire::decodeReject(f.payload); });
            if (!m)
                throw std::runtime_error("bad Reject frame");
            const auto it = _bySession.find(m->session);
            if (!_window || it == _bySession.end())
                throw std::runtime_error("server rejected a setup request");
            Tenant &tn = _tenants[it->second];
            if (tn.req != kNone)
                (*_window->reqs)[tn.req].status = Req::Rejected;
            _window->answered(it->second);
        } else if (f.type == MsgType::Stats) {
            auto m = serve::wire::decodeStats(f.payload);
            if (!m)
                throw std::runtime_error("bad Stats frame");
            _stats = std::move(*m);
        } else if (f.type == MsgType::Error) {
            throw std::runtime_error("server sent an Error frame");
        }
    }

    /** Same-bench tenants must stream identical decisions. */
    void
    crossCheck(std::size_t key, std::uint32_t ordinal, const pb::Dec &d)
    {
        auto &seen = _firstSeen[key];
        if (seen.size() <= ordinal)
            seen.resize(ordinal + 1);
        if (!seen[ordinal])
            seen[ordinal] = d;
        else if (!pb::sameBits(*seen[ordinal], d))
            ++_crossMismatches;
    }

    /** Warm-up: the tenant's next closed-loop step, if any is left. A
     *  window's straggler, answered after the window, has none. */
    void
    warmNext(std::size_t t)
    {
        Tenant &tn = _tenants[t];
        if (tn.warmLeft == 0)
            return;
        if (--tn.warmLeft > 0)
            sendStep(t);
        else
            --_warming;
    }

    void
    openAndWarm()
    {
        _tenants.assign(kTenants, Tenant{});
        _bySession.clear();
        _openSent.clear();
        _checks.clear();
        _firstSeen.clear();
        _crossMismatches = 0;
        _openRttUs.clear();
        _book = pb::ReferenceBook{};
        serve::SessionOptions opts;
        opts.optimizedRuns = kLongLivedRuns;
        const auto &names = workload::benchmarkNames();
        for (const auto &n : names)
            _book.add(workload::makeBenchmark(n), opts);
        for (std::size_t t = 0; t < kTenants; ++t) {
            Tenant &tn = _tenants[t];
            tn.conn = t % _conns.size();
            tn.key = t % names.size();
            sendOpen(t + 1, tn.key, tn.conn);
        }
        pumpUntil([&] { return _openSent.empty(); });
        // Each tenant plays its profiling run and two optimized runs.
        _warming = kTenants;
        for (std::size_t t = 0; t < kTenants; ++t) {
            Tenant &tn = _tenants[t];
            tn.warmLeft = 3 * workload::makeBenchmark(names[tn.key]).trace.size();
            _book.addEnergyTenant(tn.key, 2);
            sendStep(t);
        }
        pumpUntil([&] { return _warming == 0; });
    }

    /** Open-loop window state the frame dispatcher reports into. */
    struct Window
    {
        WireBench *self;
        pb::MappedVector<Req> *reqs;
        pb::TenantGate *gate;
        std::size_t inflight = 0;

        void
        send(std::size_t r)
        {
            Req &q = (*reqs)[r];
            Tenant &tn = self->_tenants[q.tenant];
            tn.req = r;
            q.key = static_cast<std::uint32_t>(tn.key);
            q.ordinal = tn.decided;
            q.sentNs = pb::wallNs();
            ++inflight;
            self->sendStep(q.tenant);
        }
        /** The tenant's request was answered or rejected. */
        void
        answered(std::size_t t)
        {
            --inflight;
            self->_tenants[t].req = kNone;
            if (auto nxt = gate->finish(t))
                send(*nxt);
        }
    };

    void
    window(double seconds, std::uint64_t tag, WindowStats &w)
    {
        OpenLoop loop(pb::streamSeed(_a.seed, tag), kWireRate, seconds, kTenants);
        // Fresh sessions opened beside the Steps; never stepped.
        const auto opens = pb::poissonSchedule(pb::streamSeed(_a.seed, tag ^ 0x0be0),
                                               kWireOpenRate, seconds);
        std::size_t nextOpen = 0;
        Window win{this, &loop.reqs(), &loop.gate()};
        w.before = serverStats();
        _window = &win;
        _bytes = 0;
        _codecNs = 0;
        _frames = 0;
        const std::uint64_t cpu0 = _server->cpuNs();
        const std::uint64_t loop0 = _server->loopCpuNs();
        loop.run(
            [&] {
                pump();
                const std::uint64_t now = pb::wallNs();
                while (nextOpen < opens.size() &&
                       loop.startNs() + opens[nextOpen] <= now) {
                    sendOpen(_nextOpener++, nextOpen % workload::benchmarkNames().size(),
                             nextOpen % _conns.size());
                    ++nextOpen;
                }
                return win.inflight + _openSent.size() + (opens.size() - nextOpen);
            },
            [&](std::size_t r) { win.send(r); }, w);
        const std::uint64_t cpu1 = _server->cpuNs();
        const std::uint64_t loop1 = _server->loopCpuNs();
        w.serverCpuNs = static_cast<double>(cpu1 - cpu0);
        w.ingressCpuNs = static_cast<double>(loop1 - loop0);
        w.workerCpuNs = w.serverCpuNs - w.ingressCpuNs;
        w.opens = nextOpen;
        w.wireBytes = _bytes;
        w.codecNs = static_cast<double>(_codecNs);
        w.frames = _frames;
        w.peakRssMb = _server->peakRssMb();
        loop.summarize(w);
        // Opens count as requests: unanswered ones failed.
        const std::size_t lostOpens = _openSent.size() + (opens.size() - nextOpen);
        w.attempted += opens.size();
        w.failed += lostOpens;
        w.unanswered += lostOpens;
        _openSent.clear();
        for (const Req &q : loop.reqs())
            if (q.status == Req::Answered)
                _checks.push_back({q.key, q.ordinal, q.dec});
        for (Tenant &tn : _tenants)
            tn.req = kNone;
        _window = nullptr;
        w.after = serverStats();
    }

    Args _a;
    std::unique_ptr<ChildServer> _server;
    std::vector<Conn> _conns = std::vector<Conn>(2);
    std::vector<Tenant> _tenants;
    std::unordered_map<std::uint64_t, std::size_t> _bySession;
    /** Open frames awaiting Opened, by wire tenant id. */
    std::unordered_map<std::uint64_t, std::uint64_t> _openSent;
    std::map<std::size_t, std::vector<std::optional<pb::Dec>>> _firstSeen;
    std::size_t _crossMismatches = 0;
    /** Wire tenant ids of the sessions opened beside the Steps. */
    std::uint64_t _nextOpener = 1000000;
    std::size_t _warming = 0;
    std::uint64_t _bytes = 0;
    std::uint64_t _codecNs = 0;
    std::size_t _frames = 0;
    std::optional<serve::wire::StatsMsg> _stats;
    std::vector<double> _openRttUs;
    pb::ReferenceBook _book;
    std::vector<pb::Check> _checks;
    Window *_window = nullptr;
};

// ---------------------------------------------------------------------

void
printJson(const Outcome &o, const Args &a)
{
    const auto cpus = [](std::ostream &os, const std::vector<int> &v) {
        os << "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? ", " : "") << v[i];
        os << "]";
    };
    const auto metrics = [](std::ostream &os, const Metrics &m) {
        os << "{";
        bool first = true;
        for (const auto &[name, vu] : m) {
            char num[64];
            std::snprintf(num, sizeof(num), "%.17g", vu.first);
            os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
               << num << ", \"unit\": \"" << vu.second << "\"}";
            first = false;
        }
        os << "}";
    };
    std::ostringstream os;
    os << "PERFBENCH {\"workload\": \"" << a.workload
       << "\", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
       << ", \"mismatches\": " << o.mismatches << ", \"simd_path\": \""
       << ml::toString(ml::resolveSimdPath(ml::defaultSimdMode()))
       << "\", \"cpu_model\": \"" << pb::cpuModel()
       << "\", \"pinning\": {\"loadgen\": ";
    cpus(os, a.genCpus);
    os << ", \"server\": ";
    cpus(os, a.serverCpus);
    os << "}, \"e2e\": ";
    metrics(os, o.e2e);
    os << ", \"layer\": ";
    metrics(os, o.layer);
    os << ", \"context\": ";
    metrics(os, o.context);
    os << "}\n";
    std::cout << os.str() << std::flush;
}

int
usage()
{
    std::cerr << "usage: gpupm_perfbench --workload fleet-warm|fleet-churn|"
                 "wire-mixed --seed N --seconds S --trace 0|1 --model PATH "
                 "[--gpupm PATH]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--model")
            a.model = v;
        else if (k == "--gpupm")
            a.gpupm = v;
        else
            return usage();
    }
    if (a.model.empty() || !(a.seconds > 0.0))
        return usage();
    a.allCpus = pb::allowedCpus();
    if (a.allCpus.size() >= 2) {
        a.genCpus = {a.allCpus.front()};
        a.serverCpus.assign(a.allCpus.begin() + 1, a.allCpus.end());
    }
    std::signal(SIGPIPE, SIG_IGN);
    try {
        Outcome o;
        if (a.workload == "fleet-warm" || a.workload == "fleet-churn") {
            FleetBench(a, a.workload == "fleet-churn").run(o);
        } else if (a.workload == "wire-mixed") {
            if (a.gpupm.empty())
                return usage();
            WireBench(a).run(o);
        } else {
            return usage();
        }
        if (a.trace && o.layer["trace.dropped"].first > 0)
            throw std::runtime_error("span rings overflowed; per-layer "
                                     "numbers would be incomplete");
        printJson(o, a);
        return o.mismatches == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "gpupm_perfbench: " << e.what() << "\n";
        return 1;
    }
}
