#include "machinery.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

std::uint64_t
Rng::next()
{
    std::uint64_t z = (_s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    return next() % n;
}

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t tag)
{
    Rng r(seed ^ (tag * 0xd1342543de82ef95ULL));
    r.next();
    return r.next();
}

void
poissonSchedule(std::uint64_t seed, double rate, double seconds,
                const std::function<void(std::uint64_t)> &emit)
{
    if (!(rate > 0.0) || !(seconds > 0.0))
        throw std::invalid_argument("poissonSchedule: rate and seconds > 0");
    Rng rng(streamSeed(seed, 0x5c4ed));
    const double limit = seconds * 1e9;
    double t = 0.0;
    for (;;) {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
        t += -std::log(1.0 - rng.uniform()) / rate * 1e9;
        if (t >= limit)
            break;
        emit(static_cast<std::uint64_t>(t));
    }
}

std::vector<std::uint64_t>
poissonSchedule(std::uint64_t seed, double rate, double seconds)
{
    std::vector<std::uint64_t> due;
    poissonSchedule(seed, rate, seconds,
                    [&due](std::uint64_t t) { due.push_back(t); });
    return due;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
intervalPercentile(const std::vector<TimedSample> &samples,
                   std::uint64_t intervalNs, double p,
                   std::size_t minSamples)
{
    std::map<std::uint64_t, std::vector<double>> byInterval;
    for (const TimedSample &s : samples)
        byInterval[s.offsetNs / intervalNs].push_back(s.value);
    std::vector<double> perInterval;
    for (auto &[k, v] : byInterval)
        if (v.size() >= minSamples)
            perInterval.push_back(percentile(std::move(v), p));
    return percentile(std::move(perInterval), 50.0);
}

TenantGate::TenantGate(std::size_t tenants)
    : _busy(tenants, false), _waiting(tenants)
{
}

bool
TenantGate::arrive(std::size_t tenant, std::size_t req)
{
    if (!_busy.at(tenant)) {
        _busy[tenant] = true;
        return true;
    }
    _waiting[tenant].push_back(req);
    ++_queued;
    return false;
}

std::optional<std::size_t>
TenantGate::finish(std::size_t tenant)
{
    if (!_busy.at(tenant))
        throw std::logic_error("TenantGate::finish on an idle tenant");
    auto &q = _waiting[tenant];
    if (q.empty()) {
        _busy[tenant] = false;
        return std::nullopt;
    }
    const std::size_t req = q.front();
    q.pop_front();
    --_queued;
    return req;
}

std::map<std::string, SpanStat>
aggregateSpans(const std::vector<gpupm::trace::SpanEvent> &events,
               const std::set<std::string> &detached)
{
    struct Item
    {
        std::uint64_t start, end;
        std::uint64_t childNs = 0;
        std::size_t event;
    };
    struct Name
    {
        SpanStat *stat = nullptr;
        bool detached = false;
    };
    std::map<std::string, SpanStat> out;
    // Names are string literals: resolve each pointer once.
    std::unordered_map<const char *, Name> byPtr;
    std::unordered_map<std::uint32_t, std::vector<Item>> perThread;

    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &e = events[i];
        Name &n = byPtr[e.name];
        if (!n.stat) {
            const std::string name = e.name ? e.name : "?";
            n.stat = &out[name];
            n.detached = detached.count(name) != 0;
        }
        SpanStat &s = *n.stat;
        ++s.count;
        s.totalNs += e.durNs;
        s.durationsUs.push_back(static_cast<double>(e.durNs) / 1e3);
        if (n.detached)
            s.selfNs += e.durNs;
        else
            perThread[e.tid].push_back({e.startNs, e.startNs + e.durNs, 0, i});
    }

    for (auto &[tid, items] : perThread) {
        // Parents sort before the children they enclose.
        std::sort(items.begin(), items.end(),
                  [](const Item &a, const Item &b) {
                      return a.start != b.start ? a.start < b.start
                                                : a.end > b.end;
                  });
        std::vector<std::size_t> open; // indices into items
        for (std::size_t i = 0; i < items.size(); ++i) {
            Item &it = items[i];
            while (!open.empty() && items[open.back()].end <= it.start)
                open.pop_back();
            if (!open.empty()) {
                Item &parent = items[open.back()];
                parent.childNs += std::min(it.end, parent.end) - it.start;
            }
            open.push_back(i);
        }
        for (const Item &it : items) {
            const std::uint64_t dur = it.end - it.start;
            byPtr[events[it.event].name].stat->selfNs +=
                dur - std::min(dur, it.childNs);
        }
    }
    return out;
}

} // namespace perfbench
