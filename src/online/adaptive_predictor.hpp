/**
 * @file
 * PerfPowerPredictor facade over a hot-swappable ForestHandle.
 *
 * The broker-less paths (gpupm run, a fleet with batching disabled)
 * talk to a PerfPowerPredictor directly; this adapter lets them ride
 * the same RCU publication the broker uses. Each predict/predictBatch
 * call acquires one generation snapshot and evaluates entirely against
 * it, so a single governor decision never mixes generations - the same
 * batch-boundary pickup contract the broker provides per flush.
 *
 * The per-thread kernel memo inside RandomForestPredictor is
 * keyed on the predictor's instanceId, so a swap naturally invalidates
 * it on the next batch (a fresh predictor has a fresh id).
 */

#pragma once

#include "ml/predictor.hpp"
#include "online/forest_handle.hpp"

namespace gpupm::online {

/** Forwards every query to the handle's current generation. */
class AdaptivePredictor : public ml::PerfPowerPredictor
{
  public:
    explicit AdaptivePredictor(const ForestHandle &handle)
        : _handle(handle)
    {
    }

    ml::Prediction
    predict(const ml::PredictionQuery &q,
            const hw::HwConfig &c) const override
    {
        return _handle.acquire()->predictor->predict(q, c);
    }

    void
    predictBatch(const ml::PredictionQuery &q,
                 std::span<const hw::HwConfig> cs,
                 std::span<ml::Prediction> out) const override
    {
        // One acquire per decision batch: all candidates of a decision
        // are scored against the same generation.
        _handle.acquire()->predictor->predictBatch(q, cs, out);
    }

    std::string name() const override { return "RF-online"; }

  private:
    const ForestHandle &_handle;
};

} // namespace gpupm::online
