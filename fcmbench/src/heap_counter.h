// Live-heap accounting for the heap_mb metric. heap_counter.cpp replaces the
// global operator new/delete family for the whole benchmark binary (library
// code included) with versions that keep a running total of live bytes and
// its high-water mark; nothing in the library is changed.
#pragma once

#include <cstdint>

namespace fcmbench::heap {

// Bytes currently allocated through operator new (usable sizes).
std::int64_t live_bytes() noexcept;

// Restarts the high-water mark at the current live size.
void reset_peak() noexcept;

// Highest live size since the last reset_peak().
std::int64_t peak_bytes() noexcept;

}  // namespace fcmbench::heap
