#pragma once

// OS-level page release for the pool-shrink tier.
//
// release_pages() hands a cold region's physical pages back to the
// kernel with madvise(MADV_DONTNEED) while leaving the virtual range
// mapped.  That split is load-bearing for the k-LSM's manual memory
// scheme (paper Section 4.4): stragglers may still hold pointers into
// a reclaimed chunk, and the versioned-item protocol only needs those
// pointers to stay *dereferenceable*, not to observe old contents.  A
// read after release faults in a zero page — version 0, even, dead —
// and every take() against it fails exactly as against any freed item.
//
// On non-Linux hosts release_pages() reports failure and the shrink
// machinery simply keeps chunks active (recyclable, never released) —
// graceful decay, no #ifdef in the pools.

#include <cstddef>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace klsm::mm::reclaim {

/// True when this build can actually return pages to the OS.
inline bool release_pages_supported() {
#if defined(__linux__)
    return true;
#else
    return false;
#endif
}

/// Return the physical pages of [p, p + bytes) to the OS, keeping the
/// mapping.  `p` must be page-aligned and `bytes` a multiple of the
/// page size (the pools only release whole placed regions, which
/// satisfy both).
/// Returns false if the platform refused; the caller must then treat
/// the region as still resident.
inline bool release_pages(void *p, std::size_t bytes) {
#if defined(__linux__)
    if (p == nullptr || bytes == 0)
        return false;
    return ::madvise(p, bytes, MADV_DONTNEED) == 0;
#else
    (void)p;
    (void)bytes;
    return false;
#endif
}

} // namespace klsm::mm::reclaim
