/**
 * @file
 * Cache-line-aligned vector storage for packed arenas.
 *
 * std::vector's default allocator only guarantees
 * alignof(std::max_align_t) (16 on x86-64), so a packed node arena can
 * start mid cache line, and which records share a line then depends on
 * where the allocator placed it. AlignedVector pins the allocation to
 * a 64-byte boundary instead; combined with record strides that divide
 * 64 this makes the grouping a structural property rather than an
 * allocator accident: FlatForest's 16-byte nodes always sit four to a
 * line, in the same groups on every run.
 */

#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

namespace gpupm {

inline constexpr std::size_t kCacheLineBytes = 64;

/** Minimal C++17-style allocator returning 64-byte-aligned blocks. */
template <typename T, std::size_t Align = kCacheLineBytes>
struct AlignedAllocator
{
    static_assert(Align >= alignof(T), "alignment below the type's own");
    static_assert((Align & (Align - 1)) == 0,
                  "alignment must be a power of two");

    using value_type = T;

    // Explicit rebind: allocator_traits cannot synthesize one across
    // the non-type alignment parameter.
    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {
    }

    T *allocate(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_alloc();
        // Round the byte count up to a multiple of Align:
        // ::operator new with alignment requires it on some
        // implementations, and it also licenses full-width loads over
        // the tail of the arena.
        const std::size_t bytes =
            (n * sizeof(T) + Align - 1) / Align * Align;
        return static_cast<T *>(
            ::operator new(bytes, std::align_val_t{Align}));
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{Align});
    }

    template <typename U>
    bool operator==(const AlignedAllocator<U, Align> &) const noexcept
    {
        return true;
    }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

} // namespace gpupm
