#pragma once

// Storage for the type-stable pools.
//
// The paper's manual memory scheme (Section 4.4) makes blocks and items
// type-stable: their storage is never freed while the queue lives.  This
// header provides:
//
//   * a `mem_placement` value threaded through every pool constructor,
//     carrying the pools' reclamation settings,
//   * `placed_array`, a T[n] whose elements start in T's default state.
//
// A block's entry array has a power-of-two capacity, of which a run
// fills between half and all; an arena's newest chunk fills up over
// time.  So an array of at least `mapped_array_bytes` is an anonymous
// private mapping that nothing writes at allocation: the kernel
// zero-fills each page when the pool first writes it, and pages the
// pool never writes cost no memory.  Item arenas double from 256 items
// a chunk, so with 16- and 24-byte items the first mapped chunk is the
// fifth (4096 items).  That is sound only because every
// pooled type's default state is all-zero bytes (block entries: null
// item, version 0, key 0; items: version 0, which means free), the
// state a madvise'd page already reads back as.  Smaller arrays are a
// plain `new T[n]()`, or page-aligned, zeroed heap storage when
// shrinking is on.  Under shrinking every array is page-aligned, so the
// reclamation tier (src/mm/reclaim/) may hand its pages back.

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
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

/// Arrays of at least this many bytes are mapped zero pages that the
/// kernel commits one at a time, on first write.
inline constexpr std::size_t mapped_array_bytes = std::size_t{64} << 10;

/// A T[n] in T's default state whose storage follows a mem_placement
/// and its size (see the header comment).  Move-only; elements never
/// move after allocation (type stability).
template <typename T>
class placed_array {
    static_assert(std::is_nothrow_default_constructible_v<T>,
                  "placed_array elements are constructed in bulk");
    static_assert(std::is_trivially_destructible_v<T>,
                  "placed_array frees its storage without running "
                  "element destructors");

public:
    placed_array() = default;
    placed_array(const placed_array &) = delete;
    placed_array &operator=(const placed_array &) = delete;

    placed_array(placed_array &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          count_(std::exchange(o.count_, 0)),
          bytes_(std::exchange(o.bytes_, 0)),
          kind_(std::exchange(o.kind_, storage::heap)),
          page_managed_(std::exchange(o.page_managed_, false)) {}

    placed_array &operator=(placed_array &&o) noexcept {
        if (this != &o) {
            destroy();
            data_ = std::exchange(o.data_, nullptr);
            count_ = std::exchange(o.count_, 0);
            bytes_ = std::exchange(o.bytes_, 0);
            kind_ = std::exchange(o.kind_, storage::heap);
            page_managed_ = std::exchange(o.page_managed_, false);
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
        out.page_managed_ = place.reclaim.shrink_enabled();
        const std::size_t ps = page_size();
        const std::size_t paged = ((n * sizeof(T) + ps - 1) / ps) * ps;
#if defined(__linux__)
        if (n * sizeof(T) >= mapped_array_bytes) {
            void *p = ::mmap(nullptr, paged, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            // Every element is already in its (all-zero) default state.
            out.data_ = static_cast<T *>(p);
            out.bytes_ = paged;
            out.kind_ = storage::mapped;
            return out;
        }
#endif
        if (!out.page_managed_) {
            out.data_ = new T[n]();
            out.bytes_ = n * sizeof(T);
            return out;
        }
        void *raw = ::operator new(paged, std::align_val_t{ps});
        std::memset(raw, 0, paged);
        T *d = static_cast<T *>(raw);
        for (std::size_t i = 0; i < n; ++i)
            new (d + i) T();
        out.data_ = d;
        out.bytes_ = paged;
        out.kind_ = storage::aligned;
        return out;
    }

    T *get() const { return data_; }
    T &operator[](std::size_t i) const { return data_[i]; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /// Byte footprint of the allocation (page-rounded unless a plain
    /// heap array), the unit the telemetry counts.
    std::size_t bytes() const { return bytes_; }
    /// Start of the region (page-aligned unless a plain heap array).
    const void *region() const { return data_; }
    /// True iff the array was allocated under a shrinking placement:
    /// its storage is whole pages of its own, so the shrink tier may
    /// release them.  A plain `new T[]` shares heap pages with
    /// unrelated objects.
    bool page_managed() const { return page_managed_; }

private:
    enum class storage : unsigned char {
        heap,    ///< new T[n]()
        aligned, ///< page-aligned operator new, zeroed and constructed
        mapped,  ///< anonymous mapping, untouched until written
    };

    void destroy() {
        switch (kind_) {
        case storage::heap:
            delete[] data_;
            break;
        case storage::aligned:
            ::operator delete(data_, std::align_val_t{page_size()});
            break;
        case storage::mapped:
#if defined(__linux__)
            ::munmap(data_, bytes_);
#endif
            break;
        }
        data_ = nullptr;
        count_ = 0;
        bytes_ = 0;
        kind_ = storage::heap;
        page_managed_ = false;
    }

    T *data_ = nullptr;
    std::size_t count_ = 0;
    std::size_t bytes_ = 0;
    storage kind_ = storage::heap;
    bool page_managed_ = false;
};

} // namespace klsm::mm
