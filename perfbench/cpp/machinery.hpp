/**
 * @file
 * Load-generation and measurement machinery of the decision-serving
 * benchmark, kept free of any server state so it can be unit-tested:
 * the seeded Poisson arrival schedule, percentiles, the per-tenant
 * gate that keeps one request in flight per tenant, and the span
 * aggregation that turns a trace into per-layer self times.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace perfbench {

/** splitmix64: a tiny, fully specified generator (same stream on every
 *  platform and standard library, unlike std::*_distribution). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _s(seed) {}

    std::uint64_t next();
    /** Uniform in [0, 1) with 53 random bits. */
    double uniform();
    /** Uniform integer in [0, n); n > 0. */
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t _s;
};

/** Derive an independent stream seed from a root seed and a tag. */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t tag);

/**
 * Open-loop Poisson arrivals: due times in nanoseconds from the window
 * start, strictly below @p seconds, at @p rate requests per second.
 * The same (seed, rate, seconds) always gives the same schedule.
 */
std::vector<std::uint64_t> poissonSchedule(std::uint64_t seed, double rate,
                                           double seconds);
/** The same schedule, passed to @p emit one due time at a time. */
void poissonSchedule(std::uint64_t seed, double rate, double seconds,
                     const std::function<void(std::uint64_t)> &emit);

/**
 * The @p p-th percentile (0..100) by linear interpolation between the
 * closest ranks (numpy's default); 0 for an empty sample.
 */
double percentile(std::vector<double> samples, double p);

/** A sample stamped with its offset from the window start. */
struct TimedSample
{
    std::uint64_t offsetNs = 0;
    double value = 0.0;
};

/**
 * The median over consecutive @p intervalNs intervals of each
 * interval's @p p-th percentile. Intervals with fewer than
 * @p minSamples samples are skipped; 0 when none qualifies. A stall
 * that spoils a few intervals moves this far less than it moves the
 * percentile of the whole window.
 */
double intervalPercentile(const std::vector<TimedSample> &samples,
                          std::uint64_t intervalNs, double p,
                          std::size_t minSamples = 20);

/**
 * Client-side admission for open-loop tenants: launches of one app
 * cannot overlap, so a request that arrives while its tenant has work
 * in flight waits here, in arrival order, until that work ends.
 */
class TenantGate
{
  public:
    explicit TenantGate(std::size_t tenants);

    /** Request @p req arrives for @p tenant; true = send it now (the
     *  tenant is then busy), false = it was queued behind the tenant's
     *  in-flight work. */
    bool arrive(std::size_t tenant, std::size_t req);

    /** The tenant's in-flight work ended. Returns the next queued
     *  request, which is now in flight, or nothing (tenant idle). */
    std::optional<std::size_t> finish(std::size_t tenant);

    bool busy(std::size_t tenant) const { return _busy.at(tenant); }
    /** Requests queued behind busy tenants. */
    std::size_t queued() const { return _queued; }

  private:
    std::vector<bool> _busy;
    std::vector<std::deque<std::size_t>> _waiting;
    std::size_t _queued = 0;
};

/** Per-name span totals. */
struct SpanStat
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    /** Duration minus the time its direct children cover on the same
     *  thread. */
    std::uint64_t selfNs = 0;
    std::vector<double> durationsUs;
};

/**
 * Group spans by name. Self time subtracts, per span, the part of its
 * interval covered by its direct children on the same thread (a child
 * is the innermost enclosing span's; a partially overlapping span only
 * subtracts the overlap). Spans named in @p detached - backdated spans
 * such as `serve.queueWait`, whose interval covers unrelated earlier
 * work on the recording thread - are never parents or children: their
 * self time is their duration.
 */
std::map<std::string, SpanStat>
aggregateSpans(const std::vector<gpupm::trace::SpanEvent> &events,
               const std::set<std::string> &detached);

} // namespace perfbench
