/**
 * @file
 * Work-stealing thread pool for the sweep-execution engine.
 *
 * Workers own bounded-contention deques: a worker pushes and pops its
 * own queue LIFO (cache-warm) and steals FIFO from siblings when its
 * queue runs dry. External submissions are distributed round-robin.
 * Tasks submitted from inside a worker land on that worker's local
 * queue, so nested submission never blocks the submitting task.
 *
 * Lifetime contract (drain-or-assert): shutdown() - which the
 * destructor calls - first drains every task that was submitted (queued
 * work is executed, not dropped) and then joins the workers, so
 * shutting down a pool with queued work cannot deadlock or lose work.
 * A post() racing shutdown resolves deterministically to one of two
 * outcomes: it lands before the drain completes, in which case the
 * drain waits for it and the task runs, or it observes the stopping
 * pool and trips a fatal assertion. A task is never accepted and then
 * silently dropped. Exceptions thrown by tasks propagate through the
 * associated std::future (submit) or are rethrown to the caller
 * (parallelFor, first exception wins).
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gpupm::exec {

class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 means hardware_concurrency()
     *        (at least 1).
     */
    explicit ThreadPool(std::size_t threads = 0);

    /** Equivalent to shutdown(). */
    ~ThreadPool();

    /**
     * Drain all submitted work (queued tasks are executed, and tasks
     * they post during the drain too), then join the workers. After it
     * returns the pool is empty and post() is a fatal assertion.
     * Idempotent for sequential calls (an explicit shutdown followed by
     * destruction is fine); concurrent shutdown calls are not
     * supported - the owner shuts the pool down.
     */
    void shutdown();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t threadCount() const { return _workers.size(); }

    /** Type-erased submission; prefer submit() for results. */
    void post(std::function<void()> task);

    /**
     * Submit a callable; its result (or exception) is delivered
     * through the returned future.
     */
    template <typename F>
    auto
    submit(F &&f) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(f));
        auto fut = task->get_future();
        post([task]() { (*task)(); });
        return fut;
    }

    /**
     * Run fn(0..n-1), fanned across the workers; the calling thread
     * participates, so parallelFor never deadlocks even when invoked
     * from inside a pool task. Iterations are claimed from a shared
     * atomic counter; callers needing determinism must make fn(i)
     * depend only on i (see SweepEngine). Blocks until all n
     * iterations finished; rethrows the first task exception.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** Whether the calling thread is one of this pool's workers. */
    bool onWorkerThread() const;

    /** Resolve a --jobs value: 0 means hardware_concurrency, min 1. */
    static std::size_t resolveJobs(std::size_t jobs);

  private:
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(std::size_t id);
    bool tryRunOne(std::size_t home);
    std::function<void()> take(std::size_t home);

    std::vector<std::unique_ptr<WorkerQueue>> _queues;
    std::vector<std::thread> _workers;

    /** Sleep/wake coordination and shutdown flag. */
    std::mutex _mutex;
    /** Signalled on post(), shutdown and a parallelFor's last driver. */
    std::condition_variable _cv;
    bool _stopping = false;
    /** Tasks sitting in a queue, not yet taken (guarded by _mutex). */
    std::size_t _queued = 0;
    /** Tasks posted but not yet finished (for drain-on-destroy). */
    std::size_t _inFlight = 0;
    std::condition_variable _idleCv;
    /** Round-robin cursor for external submissions. */
    std::size_t _nextQueue = 0;
};

} // namespace gpupm::exec
