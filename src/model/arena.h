// Caching arena allocator for tensor storage -- the training hot path's
// answer to per-op malloc churn.
//
// Design (borrowing the c10 caching-allocator idea at CPU scale): memory is
// carved from large bump-allocated slabs that are never returned to the OS
// while the arena lives. A fresh request first consults a per-size free
// list (a *hit*: pointer reuse, no system allocator involved); only when
// the free list is empty does the bump pointer advance (a *miss*). Freed
// blocks go back to their size-class free list, so a steady-state training
// loop -- whose tensor shapes repeat every micro-batch -- allocates
// entirely from free lists after the first iteration. The regression test
// in tests/arena_test.cpp pins exactly that: zero mallocs (no slab
// growth) and a ~100% hit rate on the steady-state path.
//
// Sizes are rounded up to 64-float (256-byte) granules, which keeps
// distinct-but-close shapes (ragged micro-batch halves) in a few shared
// buckets while wasting < 1% on transformer-sized blocks. Blocks handed
// out are *dirty*: callers (Tensor) decide whether to zero-fill.
//
// Thread safety: all public methods are safe to call concurrently (the
// pipeline runtime allocates from every stage worker at once). Each thread
// keeps its own size-class cache in front of the shared free lists, so
// allocate() and release() on a warm class take no lock: a release parks
// the block in the calling thread's cache, an allocation pops it from
// there. The shared mutex is taken only to refill an empty class (from
// the shared free list, else the bump pointer), to hand half of a class
// back once it holds more than kThreadCacheCap blocks -- which is what
// bounds a producer/consumer pair of stages, where one thread allocates
// and another frees -- and, at thread exit, to return the whole cache.
//
// Stats: counters a thread gathers locklessly are folded into the shared
// ones whenever it takes the mutex and when it exits, and stats() adds the
// calling thread's own. So hits, misses and slab_allocs are exact once the
// worker threads have joined, and bytes_in_use / bytes_free are exact
// whenever no other thread is allocating. high_water_bytes is the peak of
// the bytes outside the shared free lists -- live, or parked in some
// thread's cache -- which upper-bounds the true peak of live bytes by at
// most the threads' parked blocks.
//
// Lifetime: the process-wide Arena::global() instance is created on first
// use and intentionally never destroyed (it stays reachable, so leak
// checkers are happy), which frees tensor storage from any
// static-destruction-order concerns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace autopipe::model {

struct ArenaStats {
  std::uint64_t hits = 0;    ///< allocations served from a free list
  std::uint64_t misses = 0;  ///< allocations that advanced the bump pointer
  std::uint64_t slab_allocs = 0;  ///< system allocations (new slabs)
  std::size_t bytes_in_use = 0;   ///< currently handed out to live tensors
  std::size_t bytes_free = 0;     ///< cached in free lists
  std::size_t high_water_bytes = 0;  ///< max bytes_in_use ever observed
  std::size_t slab_bytes = 0;        ///< total bytes owned in slabs
};

class Arena {
 public:
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// The process-wide arena every Tensor draws from. Never destroyed.
  static Arena& global();

  /// Returns a (dirty) buffer of at least `numel` floats. numel == 0
  /// returns nullptr.
  float* allocate(std::size_t numel);

  /// Returns a buffer from allocate() to its size-class free list. `numel`
  /// must be the value passed to allocate(). Null is ignored.
  void release(float* p, std::size_t numel);

  /// Pre-grows the arena so that `bytes` of tensor storage can be handed
  /// out without further system allocation -- the runtime sizes this from
  /// the cost model's activation estimate. No-op when the arena already
  /// owns enough slab space. The new slab is not written, so this reserves
  /// address space: a page becomes resident when a tensor first uses it,
  /// and an over-estimate costs no memory.
  void reserve(std::size_t bytes);

  ArenaStats stats() const;

  /// Returns the calling thread's cached blocks to the shared lists, then
  /// drops every shared free block, and every slab once no block is live
  /// or parked in another running thread's cache. Live blocks are
  /// unaffected. Mostly for tests and benches that want a cold arena.
  void trim();

  /// Blocks one thread may park per size class before it hands half of
  /// them back to the shared free list.
  static constexpr std::size_t kThreadCacheCap = 16;

 private:
  struct ThreadCache;

  Arena() = default;

  struct Slab {
    std::unique_ptr<float[]> data;
    std::size_t capacity = 0;  ///< floats
    std::size_t used = 0;      ///< bump offset, floats
  };

  /// Size-class granularity: 64 floats = 256 bytes.
  static std::size_t rounded(std::size_t numel) {
    return (numel + 63) & ~std::size_t{63};
  }

  /// The calling thread's cache, created on first use; null once the
  /// thread's exit has destroyed it (release from a later thread_local or
  /// static destructor then goes through a short-lived cache).
  static ThreadCache* local_cache();

  float* bump_locked(std::size_t granules);
  /// allocate() and release() against one cache.
  float* take(ThreadCache& cache, std::size_t granules);
  void park(ThreadCache& cache, float* p, std::size_t granules);
  /// Slow path of allocate(), for a class the cache holds none of: one
  /// block from the shared free list, else from the bump pointer.
  float* refill(ThreadCache& cache, std::size_t granules);
  /// Slow path of release(): `list` holds more than kThreadCacheCap blocks.
  void hand_back(ThreadCache& cache, std::vector<float*>& list,
                 std::size_t granules);
  /// Folds the cache's counters into the shared stats and returns all of
  /// its blocks to the shared lists.
  void drain_locked(ThreadCache& cache);
  void fold_locked(ThreadCache& cache);

  mutable std::mutex mu_;
  std::vector<Slab> slabs_;
  std::unordered_map<std::size_t, std::vector<float*>> free_lists_;
  /// hits, misses, slab_allocs, bytes_free (shared lists only), slab_bytes
  /// and high_water_bytes; bytes_in_use lives in in_use_.
  ArenaStats stats_;
  /// Net bytes allocated, as folded in from the thread caches. Signed: a
  /// thread that frees blocks another thread allocated may fold first.
  std::int64_t in_use_ = 0;
  /// Bytes outside the shared free lists: live, or parked in a cache.
  std::size_t held_ = 0;

  static thread_local ThreadCache* tls_cache_;
  static thread_local bool tls_exited_;
};

/// RAII float buffer owned by the global arena: the storage cell behind
/// Tensor. Copies are deep (and counted -- see copy_count()); moves steal
/// the pointer, which is what makes channel handoff and stash shuffling in
/// the runtime copy-free.
class ArenaBuffer {
 public:
  ArenaBuffer() = default;
  /// Allocates `numel` floats; `zeroed` controls whether the (recycled,
  /// dirty) arena block is cleared. Ops whose kernels assign every output
  /// element skip the clear.
  explicit ArenaBuffer(std::size_t numel, bool zeroed = true);
  ArenaBuffer(const ArenaBuffer& other);
  ArenaBuffer& operator=(const ArenaBuffer& other);
  ArenaBuffer(ArenaBuffer&& other) noexcept;
  ArenaBuffer& operator=(ArenaBuffer&& other) noexcept;
  ~ArenaBuffer();

  float* data() { return data_; }
  const float* data() const { return data_; }
  std::size_t size() const { return size_; }

  /// Deep copies performed process-wide since start -- the runtime's
  /// copy-free handoff tests freeze this around a channel round trip.
  static std::uint64_t copy_count();

 private:
  void reset();

  float* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace autopipe::model
