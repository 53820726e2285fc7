/**
 * @file
 * Clocks, CPU accounting and pinning for the benchmark (Linux).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/** steady_clock nanoseconds. */
std::uint64_t wallNs();
/** CPU time (user + sys) of the calling thread. */
std::uint64_t threadCpuNs();
/** CPU time of this whole process. */
std::uint64_t processCpuNs();
/** CPU time of another process @p pid (all its threads). */
std::uint64_t processCpuNs(pid_t pid);
/** CPU time of thread @p tid of this process. */
std::uint64_t taskCpuNs(pid_t tid);
/** CPU time of thread @p tid of another process @p pid, from
 *  /proc/PID/task/TID/stat (clock-tick resolution). */
std::uint64_t taskStatCpuNs(pid_t pid, pid_t tid);
/** Thread ids of this process. */
std::vector<pid_t> selfTasks();
/** Kernel thread id of the calling thread. */
pid_t selfTid();

/** The CPUs the calling thread may run on. */
std::vector<int> allowedCpus();

/** Restrict the calling thread (and threads it creates later) to
 *  @p cpus; an empty list leaves the mask alone. */
void pinSelf(const std::vector<int> &cpus);

/** Steal and total jiffies summed over all CPUs (/proc/stat). */
struct CpuTimes
{
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};
CpuTimes readCpuTimes();

/** VmHWM in MiB of @p pid (0 = this process). */
double peakRssMb(pid_t pid = 0);

/** "model name" of the first CPU in /proc/cpuinfo. */
std::string cpuModel();

/** @p bytes rounded up to whole pages. */
std::size_t pageBytes(std::size_t bytes);
void *mapPages(std::size_t bytes);
void unmapPages(void *p, std::size_t bytes);

/**
 * Gives every block its own anonymous mapping and returns it to the
 * kernel on deallocate. The written part of such a block adds exactly
 * pageBytes(written bytes) to the process's RSS, whatever state
 * malloc's heap is in, so it can be taken off the peak exactly.
 */
template <typename T>
struct MappedAllocator
{
    using value_type = T;
    MappedAllocator() = default;
    template <typename U>
    MappedAllocator(const MappedAllocator<U> &)
    {
    }
    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(mapPages(n * sizeof(T)));
    }
    void
    deallocate(T *p, std::size_t n)
    {
        unmapPages(p, n * sizeof(T));
    }
    friend bool
    operator==(const MappedAllocator &, const MappedAllocator &)
    {
        return true;
    }
};

template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

} // namespace perfbench
