#include "reference.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <thread>

#include "hw/model.hpp"
#include "policy/turbo_core.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace gpupm;

Dec
toDec(const serve::DecisionRecord &r)
{
    Dec d;
    d.run = static_cast<std::uint32_t>(r.run);
    d.index = static_cast<std::uint32_t>(r.index);
    d.config = static_cast<std::uint32_t>(r.configIndex);
    d.evaluations = static_cast<std::uint32_t>(r.evaluations);
    d.tag = static_cast<std::uint8_t>(r.tag);
    d.kernelTime = r.kernelTime;
    d.overheadTime = r.overheadTime;
    d.cpuEnergy = r.cpuEnergy;
    d.gpuEnergy = r.gpuEnergy;
    return d;
}

Dec
toDec(const serve::wire::DecisionMsg &m)
{
    Dec d;
    d.run = m.run;
    d.index = m.index;
    d.config = m.configIndex;
    d.evaluations = m.evaluations;
    d.tag = m.kernelTag;
    d.kernelTime = m.kernelTime;
    d.overheadTime = m.overheadTime;
    d.cpuEnergy = m.cpuEnergy;
    d.gpuEnergy = m.gpuEnergy;
    return d;
}

bool
sameBits(const Dec &a, const Dec &b)
{
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    return a.run == b.run && a.index == b.index && a.config == b.config &&
           a.evaluations == b.evaluations && a.tag == b.tag &&
           bits(a.kernelTime) == bits(b.kernelTime) &&
           bits(a.overheadTime) == bits(b.overheadTime) &&
           bits(a.cpuEnergy) == bits(b.cpuEnergy) &&
           bits(a.gpuEnergy) == bits(b.gpuEnergy);
}

std::size_t
ReferenceBook::add(workload::Application app, serve::SessionOptions opts)
{
    Ref ref;
    ref.app = std::move(app);
    ref.opts = std::move(opts);
    _refs.push_back(std::move(ref));
    return _refs.size() - 1;
}

void
ReferenceBook::addEnergyTenant(std::size_t key, std::size_t runs)
{
    _refs.at(key).energyTenants.push_back(runs);
}

void
ReferenceBook::play(Ref &ref,
                    const std::shared_ptr<const ml::PerfPowerPredictor> &p)
{
    const auto model = hw::paperApu();
    serve::Session session(1, ref.app, p, nullptr, ref.opts, model);
    std::size_t steps = ref.need;
    std::size_t energyRuns = 0;
    for (std::size_t r : ref.energyTenants)
        energyRuns = std::max(energyRuns, r);
    if (energyRuns > 0)
        steps = std::max(steps, (1 + energyRuns) * session.runLength());
    ref.stream.reserve(steps);
    while (ref.stream.size() < steps && !session.finished())
        ref.stream.push_back(toDec(session.step()));
    if (energyRuns == 0)
        return;

    sim::Simulator sim(model);
    policy::TurboCoreGovernor turbo(model);
    const sim::RunResult base = sim.run(ref.app, turbo);
    const auto &runs = session.completedRuns();
    for (std::size_t tenantRuns : ref.energyTenants) {
        for (std::size_t r = 1; r <= tenantRuns && r < runs.size(); ++r) {
            ref.savingsSum +=
                100.0 * (1.0 - runs[r].totalEnergy() / base.totalEnergy());
            ref.lossSum +=
                100.0 * (runs[r].totalTime() / base.totalTime() - 1.0);
            ref.runs += 1.0;
        }
    }
}

std::size_t
ReferenceBook::verify(const std::vector<Check> &checks,
                      std::shared_ptr<const ml::PerfPowerPredictor> predictor,
                      unsigned threads)
{
    for (const Check &c : checks) {
        Ref &r = _refs.at(c.key);
        r.need = std::max<std::size_t>(r.need, c.ordinal + 1);
    }
    // Longest streams first, so the tail of the parallel pass is short.
    std::vector<std::size_t> order(_refs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return _refs[a].need > _refs[b].need;
    });
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::max(1u, threads); ++t) {
        pool.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < order.size();)
                play(_refs[order[i]], predictor);
        });
    }
    for (auto &t : pool)
        t.join();

    std::size_t mismatches = 0;
    for (const Check &c : checks) {
        const auto &s = _refs[c.key].stream;
        if (c.ordinal >= s.size() || !sameBits(s[c.ordinal], c.dec))
            ++mismatches;
    }
    double savings = 0.0, loss = 0.0, runs = 0.0;
    for (const Ref &r : _refs) {
        savings += r.savingsSum;
        loss += r.lossSum;
        runs += r.runs;
    }
    _savings = runs > 0 ? savings / runs : 0.0;
    _loss = runs > 0 ? loss / runs : 0.0;
    return mismatches;
}

} // namespace perfbench
