/**
 * @file
 * Memory probes for the tests that bound a component's memory: glibc's
 * heap statistics and the kernel's resident-set counters.
 */

#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace gpupm::test {

/**
 * Whether allocations reach glibc's malloc. ASan and TSan replace it
 * with their own allocators, which quarantine freed blocks, so neither
 * glibc's statistics nor the resident set then measure what the
 * program keeps.
 */
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) ||              \
    defined(__SANITIZE_THREAD__)
inline constexpr bool kGlibcMalloc = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kGlibcMalloc = false;
#else
inline constexpr bool kGlibcMalloc = true;
#endif
#else
inline constexpr bool kGlibcMalloc = true;
#endif

/** Why a test skips when kGlibcMalloc is false. */
inline constexpr const char *kNotGlibcMalloc =
    "allocations do not go through glibc's malloc (ASan/TSan build), "
    "so heap and resident-set figures do not measure the program";

/**
 * Bytes glibc's malloc has handed out and not taken back: the arenas'
 * blocks in use plus the blocks it mapped on their own. 0 off glibc.
 */
inline std::size_t
heapBytesInUse()
{
#if defined(__GLIBC__)
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
#else
    return 0;
#endif
}

/**
 * A "<field>: <n> kB" line of /proc/self/status (VmRSS, VmHWM, ...) in
 * bytes; 0 when the field is missing.
 */
inline std::size_t
procStatusBytes(const char *field)
{
    std::ifstream status("/proc/self/status");
    const std::size_t len = std::strlen(field);
    for (std::string line; std::getline(status, line);) {
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':') {
            return std::strtoull(line.c_str() + len + 1, nullptr, 10) *
                   1024;
        }
    }
    return 0;
}

} // namespace gpupm::test
