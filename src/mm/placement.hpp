#pragma once

// Page-granular storage for the type-stable pools.
//
// The paper's manual memory scheme (Section 4.4) makes blocks and items
// type-stable: their storage is never freed while the queue lives.  The
// reclamation tier (src/mm/reclaim/) may still hand a cold chunk's
// physical pages back to the OS, which is only safe for whole,
// page-aligned regions.  This header provides:
//
//   * a `mem_placement` value threaded through every pool constructor,
//     carrying the pools' reclamation settings,
//   * `placed_array`, a default-constructed T[n] that is a plain heap
//     array unless shrinking is on, in which case it is page-aligned and
//     pre-faulted so the shrink tier can madvise it away.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "mm/reclaim/config.hpp"

namespace klsm::mm {

/// How a pool's storage is set up.  Value type, threaded through
/// item_pool / block_pool / dist_lsm / shared_lsm / k_lsm construction.
struct mem_placement {
    /// Reclamation-tier settings shared by every pool built from this
    /// placement (src/mm/reclaim/).  Riding inside mem_placement means
    /// no queue-layer constructor changes shape.
    reclaim::reclaim_config reclaim{};

    friend bool operator==(const mem_placement &,
                           const mem_placement &) = default;
};

inline std::size_t page_size() {
#if defined(__linux__)
    static const std::size_t ps = [] {
        const long v = ::sysconf(_SC_PAGESIZE);
        return v > 0 ? static_cast<std::size_t>(v) : 4096;
    }();
    return ps;
#else
    return 4096;
#endif
}

/// A default-constructed T[n] whose storage follows a mem_placement.
/// With shrinking off it is one operator new[] (same allocator, same
/// touch pattern as a plain array); with shrinking on the array
/// allocates page-aligned raw storage, pre-faults it, then constructs
/// the elements in place, because only whole page-aligned regions can
/// be madvise'd away without touching neighboring heap objects.
/// Move-only; elements never move after allocation (type stability).
template <typename T>
class placed_array {
    static_assert(std::is_nothrow_default_constructible_v<T>,
                  "placed_array elements are constructed in bulk");

public:
    placed_array() = default;
    placed_array(const placed_array &) = delete;
    placed_array &operator=(const placed_array &) = delete;

    placed_array(placed_array &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          raw_(std::exchange(o.raw_, nullptr)),
          count_(std::exchange(o.count_, 0)),
          bytes_(std::exchange(o.bytes_, 0)) {}

    placed_array &operator=(placed_array &&o) noexcept {
        if (this != &o) {
            destroy();
            data_ = std::exchange(o.data_, nullptr);
            raw_ = std::exchange(o.raw_, nullptr);
            count_ = std::exchange(o.count_, 0);
            bytes_ = std::exchange(o.bytes_, 0);
        }
        return *this;
    }

    ~placed_array() { destroy(); }

    static placed_array allocate(std::size_t n,
                                 const mem_placement &place) {
        placed_array out;
        out.count_ = n;
        if (n == 0)
            return out;
        if (!place.reclaim.shrink_enabled()) {
            out.data_ = new T[n]();
            out.bytes_ = n * sizeof(T);
            return out;
        }
        const std::size_t ps = page_size();
        out.bytes_ = ((n * sizeof(T) + ps - 1) / ps) * ps;
        out.raw_ = ::operator new(out.bytes_, std::align_val_t{ps});
        // Fault every page in now, from the allocating thread.
        std::memset(out.raw_, 0, out.bytes_);
        T *d = static_cast<T *>(out.raw_);
        for (std::size_t i = 0; i < n; ++i)
            new (d + i) T();
        out.data_ = d;
        return out;
    }

    T *get() const { return data_; }
    T &operator[](std::size_t i) const { return data_[i]; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /// Byte footprint of the allocation (page-rounded for placed
    /// storage), the unit the telemetry counts.
    std::size_t bytes() const { return bytes_; }
    /// Start of the region (page-aligned for placed storage).
    const void *region() const { return raw_ ? raw_ : data_; }
    /// True iff the storage is page-aligned and pre-faulted.  Only such
    /// regions may have their pages released: a plain `new T[]` shares
    /// heap pages with unrelated objects.
    bool page_managed() const { return raw_ != nullptr; }

private:
    void destroy() {
        if (raw_ != nullptr) {
            for (std::size_t i = count_; i-- > 0;)
                data_[i].~T();
            ::operator delete(raw_, std::align_val_t{page_size()});
        } else {
            delete[] data_;
        }
        data_ = nullptr;
        raw_ = nullptr;
        count_ = 0;
        bytes_ = 0;
    }

    T *data_ = nullptr;
    void *raw_ = nullptr; ///< non-null iff page-aligned placed storage
    std::size_t count_ = 0;
    std::size_t bytes_ = 0;
};

} // namespace klsm::mm
