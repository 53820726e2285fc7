#include "host.hpp"

#include <chrono>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sched.h>
#include <new>
#include <sstream>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

namespace perfbench {

namespace {

std::uint64_t
clockNs(clockid_t id)
{
    timespec ts{};
    if (clock_gettime(id, &ts) != 0)
        return 0;
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

// Linux CPU-clock ids (what pthread_getcpuclockid/clock_getcpuclockid
// build): ~id << 3, low bits = clock kind (2 = sched), bit 2 = thread.
clockid_t
processClock(pid_t pid)
{
    return static_cast<clockid_t>((~static_cast<unsigned>(pid)) << 3) | 2;
}

clockid_t
threadClock(pid_t tid)
{
    return static_cast<clockid_t>((~static_cast<unsigned>(tid)) << 3) | 6;
}

} // namespace

std::uint64_t
wallNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

std::uint64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

std::uint64_t
processCpuNs(pid_t pid)
{
    return clockNs(processClock(pid));
}

std::uint64_t
taskCpuNs(pid_t tid)
{
    return clockNs(threadClock(tid));
}

std::uint64_t
taskStatCpuNs(pid_t pid, pid_t tid)
{
    std::ifstream is("/proc/" + std::to_string(pid) + "/task/" +
                     std::to_string(tid) + "/stat");
    std::string stat;
    std::getline(is, stat);
    // Fields after the parenthesized command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const auto paren = stat.rfind(')');
    if (paren == std::string::npos)
        return 0;
    std::istringstream fs(stat.substr(paren + 1));
    std::string field;
    std::uint64_t ticks = 0;
    for (int f = 3; f <= 15 && fs >> field; ++f)
        if (f >= 14)
            ticks += std::stoull(field);
    return ticks * 1000000000ULL /
           static_cast<std::uint64_t>(::sysconf(_SC_CLK_TCK));
}

pid_t
selfTid()
{
    return static_cast<pid_t>(::syscall(SYS_gettid));
}

std::vector<pid_t>
selfTasks()
{
    std::vector<pid_t> out;
    if (DIR *d = ::opendir("/proc/self/task")) {
        while (const dirent *e = ::readdir(d)) {
            if (e->d_name[0] >= '0' && e->d_name[0] <= '9')
                out.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
        }
        ::closedir(d);
    }
    return out;
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                out.push_back(c);
    return out;
}

void
pinSelf(const std::vector<int> &cpus)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
}

CpuTimes
readCpuTimes()
{
    std::ifstream is("/proc/stat");
    std::string tag;
    is >> tag;
    CpuTimes t;
    if (tag != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal (guest fields are
    // already inside user/nice).
    for (int i = 0; i < 8; ++i) {
        std::uint64_t v = 0;
        is >> v;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
peakRssMb(pid_t pid)
{
    std::ifstream is(pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream ls(line.substr(6));
            double kb = 0;
            ls >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::size_t
pageBytes(std::size_t bytes)
{
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return (bytes + page - 1) / page * page;
}

void *
mapPages(std::size_t bytes)
{
    void *p = ::mmap(nullptr, pageBytes(bytes == 0 ? 1 : bytes),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
unmapPages(void *p, std::size_t bytes)
{
    ::munmap(p, pageBytes(bytes == 0 ? 1 : bytes));
}

} // namespace perfbench
