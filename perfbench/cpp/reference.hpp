/**
 * @file
 * The correctness reference: every answered decision is compared bit
 * for bit with the same application and options played by a fresh
 * single-threaded serve::Session (no broker, no other tenants), and
 * the paper's headline numbers (energy savings and performance loss
 * against Turbo Core) are taken from those reference runs.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/predictor.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "workload/trace.hpp"

namespace perfbench {

/** The compared fields of one decision. */
struct Dec
{
    std::uint32_t run = 0;
    std::uint32_t index = 0;
    std::uint32_t config = 0;
    std::uint32_t evaluations = 0;
    std::uint8_t tag = 0;
    double kernelTime = 0.0;
    double overheadTime = 0.0;
    double cpuEnergy = 0.0;
    double gpuEnergy = 0.0;
};

Dec toDec(const gpupm::serve::DecisionRecord &r);
Dec toDec(const gpupm::serve::wire::DecisionMsg &m);
/** Exact equality, doubles compared as bit patterns. */
bool sameBits(const Dec &a, const Dec &b);

/** One answered decision awaiting comparison: reference stream
 *  @p key, its @p ordinal-th decision. */
struct Check
{
    std::uint32_t key = 0;
    std::uint32_t ordinal = 0;
    Dec dec;
};

class ReferenceBook
{
  public:
    /** Register a reference stream; returns its key. */
    std::size_t add(gpupm::workload::Application app,
                    gpupm::serve::SessionOptions opts);
    /** Add one tenant of the fixed energy set: the reference's
     *  optimized runs 1..@p runs count once more. */
    void addEnergyTenant(std::size_t key, std::size_t runs);
    std::size_t size() const { return _refs.size(); }

    /**
     * Play every stream far enough for @p checks and the energy set on
     * up to @p threads threads, then compare. Returns the number of
     * checks that did not match (a decision past a stream's end
     * counts as a mismatch).
     */
    std::size_t
    verify(const std::vector<Check> &checks,
           std::shared_ptr<const gpupm::ml::PerfPowerPredictor> predictor,
           unsigned threads);

    /** Mean MPC energy savings / performance loss against Turbo Core,
     *  in percent, over the energy set (after verify()). */
    double energySavingsPct() const { return _savings; }
    double perfLossPct() const { return _loss; }

  private:
    struct Ref
    {
        gpupm::workload::Application app;
        gpupm::serve::SessionOptions opts;
        std::size_t need = 0;
        /** Energy-set tenants per optimized-run count. */
        std::vector<std::size_t> energyTenants;
        std::vector<Dec> stream;
        double savingsSum = 0.0, lossSum = 0.0, runs = 0.0;
    };
    void play(Ref &ref,
              const std::shared_ptr<const gpupm::ml::PerfPowerPredictor> &p);

    std::vector<Ref> _refs;
    double _savings = 0.0, _loss = 0.0;
};

} // namespace perfbench
