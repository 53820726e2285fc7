/**
 * @file
 * The kernel memo: a governor's per-kernel prediction cache in front of
 * the Random Forest.
 *
 * The MPC premise is that kernels relaunch with the same counters
 * (paper Secs. IV-V), so most of a decision's predictions were already
 * computed by an earlier one. Every governor owns one memo: MpcGovernor
 * and PpkGovernor wrap a bare RandomForestPredictor when constructed
 * (the MPC governor hands its memo to its inner PPK), a fleet session
 * builds its own with the session's cap and hot-swap handle, and
 * `gpupm run --online-learn` builds one on its ForestHandle.
 *
 * The memo keeps an LRU-capped entry per dissimilar kernel, keyed on
 * the exact counter bits, holding the derived kernel features, the
 * instruction proxy and a dense per-config prediction table, so a
 * kernel's steady-state relaunches cost table lookups regardless of
 * what other kernels the governor scores in between. A call's misses
 * are walked as one predictRows batch. The cap bounds the memo's
 * memory (a full memo recycles its least-recently-used entry); cap 0
 * makes the memo a passthrough that walks every request.
 *
 * Config features come from the owner's hardware model (its dense
 * descriptor table), so a variant model's candidates are scored in its
 * own feature units; for the paper model the rows are bit-identical to
 * ml::configFeatures. Memoized values are exactly what the forests
 * produced, and the forests evaluate rows independently, so the cap
 * never changes a prediction.
 *
 * Hot-swap: built on a ForestHandle, each predictBatch call acquires
 * one generation at its top and serves the whole call from it. An
 * entry's table is keyed by the ordinal of the generation whose forests
 * filled it and is invalidated - known bits cleared, derived kernel
 * features kept (they do not depend on the forests) - the first time
 * the entry is touched at a different generation. Every output of one
 * call, table hits and walked rows alike, therefore comes from one
 * generation; the hot-swap fuzz test pins this.
 *
 * Not thread-safe by design: a governor decides on one thread at a
 * time (the fleet server checks a session out to one worker), so the
 * memo needs no locking.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hw/model.hpp"
#include "ml/forest_handle.hpp"
#include "ml/trainer.hpp"

namespace gpupm::ml {

class KernelMemo final : public PerfPowerPredictor
{
  public:
    /** Default LRU cap on kernel entries. */
    static constexpr std::size_t defaultCap = 32;

    /** Cumulative counts since construction. */
    struct Stats
    {
        std::uint64_t hitQueries = 0;  ///< Configs served from a table.
        std::uint64_t missQueries = 0; ///< Configs walked (cap > 0).
        std::uint64_t evictions = 0;   ///< Entries recycled at the cap.
    };

    /**
     * Memo over static forests.
     *
     * @param forests The Random Forest to serve.
     * @param model Hardware model whose config descriptors feed the
     *        feature rows (the owner's model).
     * @param cap LRU cap on kernel entries; 0 = passthrough.
     */
    KernelMemo(std::shared_ptr<const RandomForestPredictor> forests,
               hw::HardwareModelPtr model, std::size_t cap = defaultCap);

    /**
     * Memo over the handle's current generation; every call serves the
     * generation it acquires. The handle must outlive every call.
     */
    KernelMemo(const ForestHandle &handle, hw::HardwareModelPtr model,
               std::size_t cap = defaultCap);

    /**
     * @p predictor wrapped in a memo of the default cap when it is a
     * bare RandomForestPredictor; any other predictor - a memo
     * already, or an oracle family, whose ground truth makes counters
     * an unsafe key - is returned unchanged.
     */
    static std::shared_ptr<const PerfPowerPredictor>
    wrap(std::shared_ptr<const PerfPowerPredictor> predictor,
         const hw::HardwareModelPtr &model);

    Prediction predict(const PredictionQuery &q,
                       const hw::HwConfig &c) const override;

    void predictBatch(const PredictionQuery &q,
                      std::span<const hw::HwConfig> cs,
                      std::span<Prediction> out) const override;

    std::string name() const override { return "RF"; }

    std::size_t cachedKernels() const { return _entries.size(); }
    const Stats &stats() const { return _stats; }

    /** Drop every kernel entry (session reset); stats are kept. */
    void clear();

  private:
    struct Entry
    {
        kernel::KernelCounters key{};
        KernelFeatures kf{};
        double proxy = 1.0;
        std::vector<Prediction> memo; ///< By denseConfigIndex.
        std::vector<std::uint8_t> known;
        std::uint64_t lastUse = 0;
        /** Forest generation the table belongs to (0 = static). */
        std::uint64_t generation = 0;
    };

    Entry &entryFor(const kernel::KernelCounters &counters) const;

    /**
     * Walk the configs cs[idx[j]] of one kernel through @p forests and
     * write each result to out[idx[j]] (and into @p e's table when
     * given); idx is a prefix of _miss.
     */
    void walk(const RandomForestPredictor &forests,
              const KernelFeatures &kf, double proxy,
              std::span<const hw::HwConfig> cs,
              std::span<const std::uint32_t> idx,
              std::span<Prediction> out, Entry *e) const;

    std::shared_ptr<const RandomForestPredictor> _forests;
    const ForestHandle *_handle = nullptr;
    hw::HardwareModelPtr _model;
    std::size_t _cap;

    // Owner-local mutable state (single-thread access; see above).
    mutable std::vector<Entry> _entries;
    mutable std::uint64_t _clock = 0;
    mutable Stats _stats;
    /** Indices of a call's misses, reused so a hit never allocates. */
    mutable std::vector<std::uint32_t> _miss;
};

} // namespace gpupm::ml
