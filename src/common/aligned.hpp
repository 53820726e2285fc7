/**
 * @file
 * Cache-line-aligned growable storage for packed arenas.
 *
 * std::vector's default allocator only guarantees
 * alignof(std::max_align_t) (16 on x86-64), so a packed node arena can
 * start mid cache line, and which records share a line then depends on
 * where the allocator placed it. AlignedArena pins its elements to a
 * 64-byte boundary instead; combined with record strides that divide
 * 64 this makes the grouping a structural property rather than an
 * allocator accident: FlatForest's 16-byte nodes always sit four to a
 * line, in the same groups on every run.
 *
 * An arena also grows differently from a vector. A vector allocates
 * the larger block, copies into it and frees the old one, so while it
 * grows both copies are resident: up to twice the final size. An
 * AlignedArena grows with std::realloc. glibc serves a block of many
 * megabytes from its own mapping and grows it with mremap, which moves
 * page-table entries and copies nothing, so an arena filled without
 * knowing its final size (a model streamed from a file, tree by tree)
 * peaks at the size it ends at.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace gpupm {

inline constexpr std::size_t kCacheLineBytes = 64;

/**
 * Growable array of a trivially copyable T whose first element sits on
 * a kCacheLineBytes boundary; move-only.
 */
template <typename T>
class AlignedArena
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "AlignedArena moves its elements as bytes");
    static_assert(alignof(T) <= kCacheLineBytes,
                  "the type needs more than cache-line alignment");

  public:
    AlignedArena() = default;

    AlignedArena(AlignedArena &&other) noexcept
        : _block(std::exchange(other._block, nullptr)),
          _data(std::exchange(other._data, nullptr)),
          _size(std::exchange(other._size, 0)),
          _capacity(std::exchange(other._capacity, 0))
    {
    }

    AlignedArena &
    operator=(AlignedArena &&other) noexcept
    {
        std::swap(_block, other._block);
        std::swap(_data, other._data);
        std::swap(_size, other._size);
        std::swap(_capacity, other._capacity);
        return *this;
    }

    ~AlignedArena() { std::free(_block); }

    const T *data() const { return _data; }
    std::size_t size() const { return _size; }

    /** Room for at least @p n elements. */
    void
    reserve(std::size_t n)
    {
        if (n > _capacity)
            reallocate(n);
    }

    void
    push_back(const T &v)
    {
        if (_size == _capacity)
            reallocate(std::max<std::size_t>(2 * _capacity, 16));
        _data[_size++] = v;
    }

    /** Release the capacity past size() (in place under glibc). */
    void
    shrinkToFit()
    {
        if (_capacity > _size)
            reallocate(_size);
    }

  private:
    void
    reallocate(std::size_t capacity)
    {
        if (capacity > (std::numeric_limits<std::size_t>::max() -
                        kCacheLineBytes) /
                           sizeof(T)) {
            throw std::bad_alloc();
        }
        // kCacheLineBytes of slack leave room to align the elements
        // wherever the block lands. realloc keeps the block's leading
        // bytes, so elements that arrive at another offset modulo the
        // line size are moved within the new block.
        const std::size_t old_offset =
            _block ? static_cast<std::size_t>(
                         reinterpret_cast<unsigned char *>(_data) -
                         static_cast<unsigned char *>(_block))
                   : 0;
        void *const block = std::realloc(
            _block, capacity * sizeof(T) + kCacheLineBytes);
        if (block == nullptr)
            throw std::bad_alloc();
        const auto address = reinterpret_cast<std::uintptr_t>(block);
        const std::size_t offset =
            (kCacheLineBytes - address % kCacheLineBytes) %
            kCacheLineBytes;
        auto *const base = static_cast<unsigned char *>(block);
        if (offset != old_offset && _size != 0)
            std::memmove(base + offset, base + old_offset,
                         _size * sizeof(T));
        _block = block;
        _data = reinterpret_cast<T *>(base + offset);
        _capacity = capacity;
    }

    void *_block = nullptr;
    T *_data = nullptr;
    std::size_t _size = 0;
    std::size_t _capacity = 0;
};

} // namespace gpupm
