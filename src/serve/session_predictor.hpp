/**
 * @file
 * Per-session predictor decorator: a kernel-level prediction cache.
 *
 * Each fleet session owns one SessionPredictor wrapping the shared
 * Random Forest. The predictor's own memo (see
 * RandomForestPredictor::predictBatch) is a one-entry thread_local
 * keyed on the last kernel seen by the thread; a server worker
 * interleaves decisions from many sessions and many kernels, so that
 * entry thrashes and every decision re-walks the forests. Here each
 * session keeps an LRU-capped entry per dissimilar kernel (keyed on
 * exact counter bits) holding the derived kernel features and a dense
 * per-config memo, so a kernel's steady-state relaunches cost table
 * lookups regardless of what other sessions run on the same worker.
 * The cap is the SessionManager's lever on per-session memory (a
 * capped session evicts its least-recently-used kernel). Misses are
 * walked on the calling thread, as one FlatForest batch per call.
 *
 * Memoized values are exactly what the forests produced, and the
 * forests evaluate rows independently, so every prediction is
 * bit-identical to calling the wrapped predictor directly.
 *
 * Hot-swap: under online learning the forests change generation
 * whenever the learner publishes. predictBatch acquires one generation
 * at its top and serves the whole call from it: each kernel entry's
 * memo is keyed by the generation whose forests produced it and is
 * invalidated - known bits cleared, derived kernel features kept (they
 * do not depend on the forests) - the first time the entry is touched
 * at a different generation, and the misses are walked against the
 * acquired forests. Every output of one predictBatch call, memo hits
 * and walked rows alike, therefore comes from one generation; the
 * hot-swap fuzz test pins this.
 *
 * Not thread-safe by design: a session is processed by one worker at a
 * time (the server checks sessions out exclusively), so the cache needs
 * no locking.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/model.hpp"
#include "ml/trainer.hpp"
#include "online/forest_handle.hpp"
#include "telemetry/telemetry.hpp"

namespace gpupm::serve {

struct SessionPredictorOptions
{
    /**
     * LRU cap on cached kernel entries; 0 disables the cache, turning
     * the decorator into a passthrough - the single-tenant baseline the
     * fleet benchmark compares against.
     */
    std::size_t kernelCacheCap = 32;
};

class SessionPredictor : public ml::PerfPowerPredictor
{
  public:
    /**
     * @param base Shared predictor. Caching engages only when it is a
     *        RandomForestPredictor; other predictors (oracle families
     *        consult ground truth, so counters are not a safe cache
     *        key) pass through untouched.
     * @param handle Hot-swap publication point; null = static forests.
     *        When set, base must be the (baseline) Random Forest, and
     *        each call serves the generation it acquires.
     * @param model Hardware model whose config descriptors feed the
     *        feature rows (the session's model, so heterogeneous
     *        fleets score candidates in their own model's scaling).
     * @param telemetry Registry receiving cache metrics; may be null.
     */
    SessionPredictor(
        std::shared_ptr<const ml::PerfPowerPredictor> base,
        const online::ForestHandle *handle, hw::HardwareModelPtr model,
        const SessionPredictorOptions &opts = {},
        telemetry::Registry *telemetry = nullptr);

    ml::Prediction predict(const ml::PredictionQuery &q,
                           const hw::HwConfig &c) const override;

    void predictBatch(const ml::PredictionQuery &q,
                      std::span<const hw::HwConfig> cs,
                      std::span<ml::Prediction> out) const override;

    std::string name() const override { return _base->name(); }

    /** Whether the cache path is engaged (base is an RF). */
    bool accelerated() const { return _rf != nullptr && _cap > 0; }

    std::size_t cachedKernels() const { return _entries.size(); }
    std::size_t cacheEvictions() const { return _evictions; }

    /** Drop every cached kernel entry (session reset). */
    void clearCache();

  private:
    struct KernelEntry
    {
        kernel::KernelCounters key{};
        ml::KernelFeatures kf{};
        double proxy = 1.0;
        std::vector<ml::Prediction> memo; ///< By denseConfigIndex.
        std::vector<std::uint8_t> known;
        std::uint64_t lastUse = 0;
        /** Forest generation the memo belongs to (0 = static). */
        std::uint64_t generation = 0;
    };

    KernelEntry &entryFor(const kernel::KernelCounters &counters) const;

    std::shared_ptr<const ml::PerfPowerPredictor> _base;
    const ml::RandomForestPredictor *_rf; ///< base, when it is an RF.
    const online::ForestHandle *_handle;
    hw::HardwareModelPtr _model;
    std::size_t _cap;

    // Session-local mutable state (single-worker access; see above).
    mutable std::vector<KernelEntry> _entries;
    mutable std::uint64_t _clock = 0;
    mutable std::size_t _evictions = 0;

    // Shared telemetry cells (atomic; may be null).
    telemetry::Counter *_hitQueries = nullptr;
    telemetry::Counter *_missQueries = nullptr;
    telemetry::Counter *_kernelEvictions = nullptr;
};

} // namespace gpupm::serve
