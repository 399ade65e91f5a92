#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file arena.h
/// Size-class pool allocator for the per-tick hot path. Small fixed-size
/// blocks (message cores, buffer list/map nodes, event records) are carved
/// from 64 KiB bump chunks and recycled through per-thread free lists, so the
/// steady state of a scenario run never touches the global heap: a "free" is
/// one pointer push, an "allocate" one pointer pop.
///
/// Ownership model: chunks are owned by a process-lifetime registry that is
/// intentionally leaked (see arena.cpp), never by the thread that happened to
/// carve them. That makes two things safe by construction: (1) a block may be
/// freed on a different thread than the one that allocated it — it simply
/// joins the freeing thread's list; (2) thread-local free lists may outlive
/// any particular allocation site, so static-destruction order can never
/// leave a dangling chunk. Per-object frees therefore just recycle; the
/// backing memory is released in one batch at process teardown.
///
/// Sanitizer builds (DTNIC_SANITIZE=thread/address) compile arena.cpp with
/// DTNIC_ARENA_DISABLE, turning every call into plain operator new/delete so
/// ASan/LSan/TSan see every object boundary. `enabled()` reports which mode
/// is live; the zero-allocation probe test keys off it.

namespace dtnic::util::arena {

/// Largest block size served from the pool; bigger requests pass through to
/// operator new (tracked in stats so tests can spot unexpected passthrough).
inline constexpr std::size_t kMaxPooledBytes = 512;
/// Size-class granularity; also the alignment every pooled block gets.
inline constexpr std::size_t kClassBytes = 16;
/// Bump-chunk size carved into blocks on free-list miss.
inline constexpr std::size_t kChunkBytes = 64 * 1024;

/// Allocate \p bytes (pooled when <= kMaxPooledBytes, else operator new).
[[nodiscard]] void* allocate(std::size_t bytes);
/// Return a block obtained from allocate() with the same \p bytes.
void deallocate(void* p, std::size_t bytes) noexcept;

/// False when the build passes through to operator new (sanitizer builds).
[[nodiscard]] bool enabled() noexcept;

/// Calling-thread counters; cheap enough to read in test assertions.
struct ThreadStats {
  std::uint64_t pool_allocs = 0;    ///< blocks served from a free list or chunk
  std::uint64_t pool_frees = 0;     ///< blocks pushed back to a free list
  std::uint64_t chunk_allocs = 0;   ///< 64 KiB chunks requested from the heap
  std::uint64_t passthrough = 0;    ///< requests above kMaxPooledBytes
};
[[nodiscard]] ThreadStats thread_stats() noexcept;

/// Minimal std allocator over the arena for node-based containers
/// (std::list / std::unordered_map nodes, std::allocate_shared control
/// blocks) and small spill arrays. Everything routes through
/// arena::allocate, which already passes requests above kMaxPooledBytes —
/// large vector growth, big hash bucket tables — to plain operator new.
/// Those amortize and stabilize on their own; small blocks churn per tick
/// and must recycle.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= kClassBytes, "pooled blocks are 16-byte aligned");
    return static_cast<T*>(arena::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { arena::deallocate(p, n * sizeof(T)); }
};

/// unordered_map whose nodes (and small bucket tables) recycle through the
/// arena — the default shape for per-tick churn maps on the hot path.
template <typename K, typename V>
using PooledMap = std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                                     PoolAllocator<std::pair<const K, V>>>;

/// vector whose (small) storage recycles through the arena.
template <typename T>
using PooledVector = std::vector<T, PoolAllocator<T>>;

// All PoolAllocator instances share the same (thread-local) pool, so any two
// compare equal regardless of value type.
template <typename T, typename U>
bool operator==(const PoolAllocator<T>&, const PoolAllocator<U>&) noexcept {
  return true;
}
template <typename T, typename U>
bool operator!=(const PoolAllocator<T>&, const PoolAllocator<U>&) noexcept {
  return false;
}

}  // namespace dtnic::util::arena
