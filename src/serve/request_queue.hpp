/**
 * @file
 * Bounded multi-producer request queue with backpressure.
 *
 * The fleet server's admission point: client threads (and workers
 * re-enqueueing a session's next step) push decision requests, worker
 * threads pop them. The queue is bounded; when it is full a producer
 * either gets an immediate rejection (tryPush - the server counts it
 * and the client is expected to back off) or blocks until space frees
 * up (push - used where rejection would deadlock a pipeline, e.g. a
 * worker scheduling the follow-up request of the step it just
 * finished).
 *
 * close() wakes everyone: pending pops drain the remaining items and
 * then return nullopt; pushes after close are rejected. FIFO order is
 * preserved per producer and total across producers (single mutex), so
 * a serial producer observes strict submission order - this is what
 * makes the deterministic fleet mode's "fixed arrival order" exact.
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/logging.hpp"

namespace gpupm::serve {

template <typename T>
class RequestQueue
{
  public:
    explicit RequestQueue(std::size_t capacity) : _capacity(capacity)
    {
        GPUPM_ASSERT(capacity > 0, "queue capacity must be positive");
    }

    std::size_t capacity() const { return _capacity; }

    std::size_t
    depth() const
    {
        std::lock_guard lock(_mutex);
        return _items.size();
    }

    /**
     * Non-blocking admission: false when the queue is full or closed
     * (the caller counts the rejection; nothing is enqueued).
     */
    bool
    tryPush(T item)
    {
        {
            std::lock_guard lock(_mutex);
            if (_closed || _items.size() >= _capacity)
                return false;
            _items.push_back(std::move(item));
        }
        _consumerCv.notify_one();
        return true;
    }

    /**
     * Blocking admission: waits for space. False only when the queue
     * was closed before space became available.
     */
    bool
    push(T item)
    {
        {
            std::unique_lock lock(_mutex);
            _producerCv.wait(lock, [this] {
                return _closed || _items.size() < _capacity;
            });
            if (_closed)
                return false;
            _items.push_back(std::move(item));
        }
        _consumerCv.notify_one();
        return true;
    }

    /**
     * Blocking removal: waits for an item. nullopt once the queue is
     * closed *and* drained - items enqueued before close() are always
     * delivered.
     */
    std::optional<T>
    pop()
    {
        std::optional<T> out;
        {
            std::unique_lock lock(_mutex);
            _consumerCv.wait(lock, [this] {
                return _closed || !_items.empty();
            });
            if (_items.empty())
                return std::nullopt;
            out = std::move(_items.front());
            _items.pop_front();
        }
        _producerCv.notify_one();
        return out;
    }

    /** Non-blocking removal; nullopt when nothing is queued. */
    std::optional<T>
    tryPop()
    {
        std::optional<T> out;
        {
            std::lock_guard lock(_mutex);
            if (_items.empty())
                return std::nullopt;
            out = std::move(_items.front());
            _items.pop_front();
        }
        _producerCv.notify_one();
        return out;
    }

    /** Reject future pushes, wake all waiters; idempotent. */
    void
    close()
    {
        {
            std::lock_guard lock(_mutex);
            _closed = true;
        }
        _consumerCv.notify_all();
        _producerCv.notify_all();
    }

  private:
    const std::size_t _capacity;
    mutable std::mutex _mutex;
    std::condition_variable _consumerCv;
    std::condition_variable _producerCv;
    std::deque<T> _items;
    bool _closed = false;
};

} // namespace gpupm::serve
