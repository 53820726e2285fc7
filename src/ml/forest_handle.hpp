/**
 * @file
 * RCU-style publication point for hot-swappable Random Forests.
 *
 * The online-learning loop (gpupm::online) retrains forests in the
 * background while the fleet server keeps serving predictions. The
 * handle is the single synchronization point between the two: a
 * retrain publishes a new immutable ForestGeneration by swapping one
 * pointer, and readers (the kernel memos of fleet sessions and of
 * `gpupm run --online-learn`) acquire a snapshot by copying it. Nobody
 * waits for a refit - there is no reader registration and no grace
 * period to wait out; old generations stay alive until the last
 * shared_ptr drops.
 *
 * The pointer sits behind a mutex held only for that swap or copy (one
 * reference-count update); the outgoing generation is released after
 * the lock. std::atomic<std::shared_ptr> costs the same here (libstdc++
 * guards it with a spinlock bit), but its load() releases that lock
 * with a relaxed store, so its pointer read is unordered with the next
 * store - a data race ThreadSanitizer reports under the hot-swap fuzz.
 *
 * Consistency contract: a reader that acquires a generation once per
 * call and evaluates the whole call against that snapshot gets
 * results bit-identical to that generation's forests regardless of
 * concurrent publishes (the generation is immutable). Per-kernel memos
 * must be keyed by the generation's ordinal so a swap invalidates them
 * (see KernelMemo); the hot-swap fuzz test pins both properties.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "ml/trainer.hpp"

namespace gpupm::ml {

/** One immutable published forest generation. */
struct ForestGeneration
{
    /** Publication ordinal: 0 is the offline-trained baseline. */
    std::uint64_t ordinal = 0;
    std::shared_ptr<const RandomForestPredictor> predictor;
};

/**
 * Publication of the current generation. acquire(), ordinal() and
 * publish() are safe from any thread at any time; publishes are
 * numbered in the order they take the lock.
 */
class ForestHandle
{
  public:
    explicit ForestHandle(
        std::shared_ptr<const RandomForestPredictor> baseline)
        : _current(std::make_shared<ForestGeneration>(
              ForestGeneration{0, std::move(baseline)}))
    {
    }

    ForestHandle(const ForestHandle &) = delete;
    ForestHandle &operator=(const ForestHandle &) = delete;

    /** Snapshot of the current generation (never null). */
    std::shared_ptr<const ForestGeneration>
    acquire() const
    {
        std::lock_guard lock(_mutex);
        return _current;
    }

    /** Ordinal of the current generation. */
    std::uint64_t
    ordinal() const
    {
        return acquire()->ordinal;
    }

    /**
     * Publish @p next as the new current generation; returns its
     * ordinal (previous + 1). In-flight readers holding the previous
     * snapshot are unaffected.
     */
    std::uint64_t
    publish(std::shared_ptr<const RandomForestPredictor> next)
    {
        auto g = std::make_shared<ForestGeneration>();
        g->predictor = std::move(next);
        // Declared before the lock so the outgoing generation (possibly
        // its last reference, and with it whole forests) is freed after
        // the unlock, never while readers wait.
        std::shared_ptr<const ForestGeneration> old;
        std::lock_guard lock(_mutex);
        g->ordinal = _current->ordinal + 1;
        const std::uint64_t ord = g->ordinal;
        old = std::exchange(_current, std::move(g));
        return ord;
    }

  private:
    mutable std::mutex _mutex;
    std::shared_ptr<const ForestGeneration> _current;
};

} // namespace gpupm::ml
