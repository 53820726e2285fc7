#include "exec/thread_pool.hpp"

#include <atomic>

#include "common/logging.hpp"

namespace gpupm::exec {

namespace {

/** Set while a thread runs a workerLoop, for onWorkerThread(). */
thread_local const ThreadPool *tl_pool = nullptr;
thread_local std::size_t tl_workerId = 0;

} // namespace

std::size_t
ThreadPool::resolveJobs(std::size_t jobs)
{
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    return jobs > 0 ? jobs : 1;
}

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t n = resolveJobs(threads);
    _queues.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        _queues.push_back(std::make_unique<WorkerQueue>());
    _workers.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        _workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void
ThreadPool::shutdown()
{
    if (_workers.empty())
        return; // Sequentially idempotent: already shut down.
    {
        // Drain: queued work is executed, never dropped. _inFlight
        // counts posted-but-unfinished tasks, including tasks posted by
        // running tasks, so the wait covers nested submission chains.
        // A post() that wins the race against this wait is part of the
        // drain; one that loses trips the !_stopping assertion.
        std::unique_lock lock(_mutex);
        _idleCv.wait(lock, [this] { return _inFlight == 0; });
        _stopping = true;
    }
    _cv.notify_all();
    for (auto &w : _workers)
        w.join();
    _workers.clear();
}

bool
ThreadPool::onWorkerThread() const
{
    return tl_pool == this;
}

void
ThreadPool::post(std::function<void()> task)
{
    GPUPM_ASSERT(task, "posted an empty task");
    std::size_t target;
    {
        std::unique_lock lock(_mutex);
        GPUPM_ASSERT(!_stopping, "post() on a stopping ThreadPool");
        ++_inFlight;
        // A worker keeps its own spawn local (LIFO, cache-warm);
        // external submissions spread round-robin.
        target = (tl_pool == this)
                     ? tl_workerId
                     : (_nextQueue++ % _queues.size());
        // Counted and pushed under _mutex: a sleeper that sees
        // _queued > 0 finds the task in a queue.
        ++_queued;
        std::lock_guard ql(_queues[target]->mutex);
        _queues[target]->tasks.push_back(std::move(task));
    }
    _cv.notify_one();
}

std::function<void()>
ThreadPool::take(std::size_t home)
{
    // Own queue first, newest-first; then steal oldest-first from
    // siblings, starting just past home to spread contention.
    {
        std::lock_guard ql(_queues[home]->mutex);
        if (!_queues[home]->tasks.empty()) {
            auto task = std::move(_queues[home]->tasks.back());
            _queues[home]->tasks.pop_back();
            return task;
        }
    }
    for (std::size_t k = 1; k < _queues.size(); ++k) {
        auto &victim = *_queues[(home + k) % _queues.size()];
        std::lock_guard ql(victim.mutex);
        if (!victim.tasks.empty()) {
            auto task = std::move(victim.tasks.front());
            victim.tasks.pop_front();
            return task;
        }
    }
    return nullptr;
}

bool
ThreadPool::tryRunOne(std::size_t home)
{
    auto task = take(home);
    if (!task)
        return false;
    {
        std::lock_guard lock(_mutex);
        --_queued;
    }
    task();
    {
        std::lock_guard lock(_mutex);
        --_inFlight;
        if (_inFlight == 0)
            _idleCv.notify_all();
    }
    return true;
}

void
ThreadPool::workerLoop(std::size_t id)
{
    tl_pool = this;
    tl_workerId = id;
    for (;;) {
        if (tryRunOne(id))
            continue;
        // post() counts a task under _mutex before it notifies, so a
        // task published after our queue scan keeps this predicate
        // true: no wake-up is missed, and an idle worker sleeps.
        std::unique_lock lock(_mutex);
        _cv.wait(lock, [this] { return _stopping || _queued > 0; });
        if (_stopping)
            return;
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (n == 1) {
        fn(0);
        return;
    }

    struct ForState
    {
        std::atomic<std::size_t> next{0};
        std::atomic<bool> cancelled{false};
        std::mutex mutex; ///< Guards firstError.
        std::exception_ptr firstError;
        /** Posted drivers not yet finished; guarded by the pool's _mutex. */
        std::size_t driversLeft = 0;
    };
    auto st = std::make_shared<ForState>();

    auto drive = [st, n, &fn] {
        for (;;) {
            if (st->cancelled.load())
                return;
            const std::size_t i = st->next.fetch_add(1);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard lock(st->mutex);
                if (!st->firstError)
                    st->firstError = std::current_exception();
                st->cancelled.store(true);
            }
        }
    };

    const std::size_t helpers = std::min(threadCount(), n - 1);
    st->driversLeft = helpers;
    for (std::size_t k = 0; k < helpers; ++k) {
        post([this, st, drive] {
            drive();
            std::lock_guard lock(_mutex);
            if (--st->driversLeft == 0)
                _cv.notify_all();
        });
    }

    // The calling thread is a driver too, and while waiting for the
    // posted drivers it keeps executing pool tasks: parallelFor makes
    // progress even when every worker is busy (nested invocation from
    // inside a pool task), so it cannot deadlock. It sleeps on the
    // workers' condition variable, which both a post() and the last
    // driver's exit signal.
    drive();
    const std::size_t home = onWorkerThread() ? tl_workerId : 0;
    for (;;) {
        {
            std::unique_lock lock(_mutex);
            _cv.wait(lock, [this, &st] {
                return st->driversLeft == 0 || _queued > 0;
            });
            if (st->driversLeft == 0)
                break;
        }
        tryRunOne(home);
    }
    if (st->firstError)
        std::rethrow_exception(st->firstError);
}

} // namespace gpupm::exec
