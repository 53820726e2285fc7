/**
 * @file
 * Closed-loop online learning: drift-triggered background retraining
 * with RCU forest hot-swap.
 *
 * The OnlineLearner sits in the decision-provenance path as a
 * DecisionSink. Every observed MPC decision already carries everything
 * a training row needs - the raw counters, the chosen configuration
 * (hw::denseConfigAt inverts the dense index) and the measured
 * time/power outcome - so the learner accumulates rows as decisions
 * stream in, folds each record into a DriftDetector, and when drift
 * sustains it refits both forests on a private background thread pool
 * and publishes the result through the ForestHandle. Serving never
 * pauses: publication is one pointer swap, and readers pick the new
 * generation up at their next call.
 *
 * Determinism contract (pinned by the fleet golden test with
 * --online-learn on): the learner is an observer until the detector
 * triggers. record() forwards to the inner sink unchanged, row
 * accumulation and drift folding have no side channels into decision
 * logic, and a refit only happens after a trigger - so a drift-free
 * run produces byte-identical decisions with the learner attached or
 * not. Refits themselves are deterministic too: rows are snapshotted
 * in arrival order under the sink mutex, and the forest seed is
 * derived from (base seed, trigger ordinal).
 *
 * Threading: record() is called concurrently by fleet sessions; all
 * learner state is guarded by one mutex. Retrains run on the learner's
 * own single-thread pool - the fleet server's workers sit in blocking
 * request loops and would never run a posted task. At most one retrain
 * is in flight; triggers arriving while one runs are counted and
 * dropped (the refreshed forest reflects those rows anyway).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/thread_pool.hpp"
#include "ml/forest_handle.hpp"
#include "ml/random_forest.hpp"
#include "online/drift.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/decision.hpp"

namespace gpupm::online {

/** Online-learning configuration. */
struct OnlineOptions
{
    DriftOptions drift{};
    /** Accumulated rows required before a trigger may refit. */
    std::size_t minRows = 256;
    /** Row-buffer capacity; oldest rows are dropped beyond it. */
    std::size_t maxRows = 16384;
    /** Forest shape for refits (trees, depth, mtry). */
    ml::ForestOptions forest = ml::ForestOptions::regressionDefaults();
    /** Base seed; refit g uses seed ^ g so generations differ but are
     *  reproducible. */
    std::uint64_t seed = 0x0b11e5ULL;
    /** Worker threads for the background refit (the learner's own
     *  pool; 1 is plenty for fleet-scale row counts). */
    std::size_t retrainJobs = 1;
    /**
     * Run refits inline inside record() instead of on the background
     * pool. For tests and benches that need the swap to have happened
     * at a known record boundary; serving paths leave this off.
     */
    bool synchronous = false;
};

/** Monotonic learner statistics (snapshot under the sink mutex). */
struct OnlineStats
{
    std::uint64_t observed = 0;  ///< Records folded into the detector.
    std::uint64_t rows = 0;      ///< Training rows accumulated (total).
    std::uint64_t triggers = 0;  ///< Drift triggers seen.
    std::uint64_t retrains = 0;  ///< Refits actually started.
    std::uint64_t suppressed = 0; ///< Triggers dropped (refit busy /
                                  ///< too few rows).
    std::uint64_t swaps = 0;     ///< Generations published.
};

/** Drift-triggered retraining sink; see file comment. */
class OnlineLearner : public trace::DecisionSink
{
  public:
    /**
     * @param handle Publication point shared with the serving side.
     * @param opts Tuning.
     * @param inner Downstream sink (trace export); forwarded first,
     *        unchanged. May be null.
     * @param telemetry Registry for online.* counters. May be null.
     */
    OnlineLearner(ml::ForestHandle &handle, const OnlineOptions &opts,
                  trace::DecisionSink *inner = nullptr,
                  telemetry::Registry *telemetry = nullptr);

    /** Drains any in-flight refit. */
    ~OnlineLearner() override;

    void record(trace::DecisionRecord &&rec) override;

    /** Block until no refit is in flight (a test flush boundary). */
    void drain();

    OnlineStats stats() const;

  private:
    struct Row
    {
        ml::FeatureVector f;
        double timeTarget;
        double powerTarget;
    };

    void accumulateLocked(const trace::DecisionRecord &r);
    /** The buffered rows, oldest first (the refit's input order). */
    std::vector<Row> rowsInArrivalOrderLocked() const;
    void onTriggerLocked(const DriftEvent &ev);
    void retrain(std::uint64_t trigger_ordinal,
                 std::vector<Row> rows);

    ml::ForestHandle &_handle;
    const OnlineOptions _opts;
    trace::DecisionSink *const _inner;
    telemetry::Counter *_ctrTriggers = nullptr;
    telemetry::Counter *_ctrRetrains = nullptr;
    telemetry::Counter *_ctrSwaps = nullptr;
    telemetry::Counter *_ctrSuppressed = nullptr;

    mutable std::mutex _mutex;
    DriftDetector _detector;
    /**
     * Row buffer: appended until it holds maxRows rows, then a ring
     * whose oldest row sits at _head.
     */
    std::vector<Row> _rows;
    std::size_t _head = 0;
    OnlineStats _stats;
    bool _retrainInFlight = false;

    /** Created lazily on the first background refit. */
    std::unique_ptr<exec::ThreadPool> _pool;
};

} // namespace gpupm::online
