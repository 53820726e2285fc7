/**
 * @file
 * Predict Previous Kernel (PPK) governor (paper Secs. II-E, III).
 *
 * The state-of-the-art history-based scheme the paper compares against:
 * assume the kernel that just finished will repeat, and pick the
 * configuration minimizing its predicted energy subject to the running
 * throughput constraint (paper Eq. 2). The scan is exhaustive over the
 * configuration space - O(M) per kernel - which is also what makes PPK
 * the per-kernel cost yardstick (T_PPK) for the MPC horizon generator.
 */

#pragma once

#include <memory>
#include <optional>

#include "hw/model.hpp"
#include "ml/energy.hpp"
#include "ml/predictor.hpp"
#include "policy/overhead.hpp"
#include "sim/governor.hpp"

namespace gpupm::policy {

struct PpkOptions
{
    /** Charge modeled decision latency (off for limit studies). */
    bool chargeOverhead = true;
    OverheadModel overhead{};
    /**
     * Search-space override; unset means "the hardware model's space"
     * (set only for ablations).
     */
    std::optional<hw::ConfigSpaceOptions> searchSpace;
};

class PpkGovernor : public sim::Governor
{
  public:
    /**
     * @param predictor Performance/power predictor (not owned shared).
     *        A bare RandomForestPredictor is wrapped in the governor's
     *        own ml::KernelMemo; any other predictor is used as given.
     * @param opts Options.
     * @param model Hardware model governed (search space, fail-safe
     *              anchor, energy-model parameters).
     */
    PpkGovernor(std::shared_ptr<const ml::PerfPowerPredictor> predictor,
                const PpkOptions &opts, hw::HardwareModelPtr model);

    std::string name() const override { return "PPK"; }

    void beginRun(const std::string &app_name,
                  Throughput target) override;

    sim::Decision decide(std::size_t index) override;

    void observe(const sim::Observation &obs) override;

    /** Predictor evaluations made in the most recent decide() call. */
    std::size_t lastEvaluationCount() const { return _lastEvals; }

  private:
    std::shared_ptr<const ml::PerfPowerPredictor> _predictor;
    PpkOptions _opts;
    hw::HardwareModelPtr _model;
    ml::EnergyModel _energy;
    /** Present only when opts.searchSpace overrides the model's. */
    std::optional<hw::ConfigSpace> _ownedSpace;
    const hw::ConfigSpace &_space;

    Throughput _target = 0.0;
    InstCount _cumInsts = 0.0;
    Seconds _cumTime = 0.0;
    std::size_t _lastEvals = 0;

    /** Last completed kernel: the "previous kernel" PPK replays. */
    struct LastKernel
    {
        kernel::KernelCounters counters;
        InstCount instructions = 0.0;
        const kernel::KernelParams *truth = nullptr;
    };
    std::optional<LastKernel> _last;
};

} // namespace gpupm::policy
