#include "model/arena.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace autopipe::model {

namespace {
// Slabs grow in 4 MiB steps (1M floats); a single over-sized request gets
// its own exactly-sized slab instead of bloating the step. Slabs are left
// uninitialised: blocks are handed out dirty anyway, so no slab byte is
// written before a tensor uses it, and an untouched page is never made
// resident.
constexpr std::size_t kSlabFloats = std::size_t{1} << 20;

std::atomic<std::uint64_t> g_buffer_copies{0};
}  // namespace

struct Arena::ThreadCache {
  /// granules -> parked blocks, most recently released last.
  std::unordered_map<std::size_t, std::vector<float*>> lists;
  // Counts not yet folded into the shared stats.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::int64_t in_use = 0;  ///< bytes allocated minus bytes released

  ThreadCache() = default;
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;
  ~ThreadCache() {
    // From here on, this thread's allocations and releases go through a
    // transient cache (which sets the same flags again when it drains).
    tls_cache_ = nullptr;
    tls_exited_ = true;
    Arena& arena = Arena::global();
    std::lock_guard<std::mutex> lock(arena.mu_);
    arena.drain_locked(*this);
  }
};

thread_local Arena::ThreadCache* Arena::tls_cache_ = nullptr;
thread_local bool Arena::tls_exited_ = false;

Arena& Arena::global() {
  // Intentionally leaked (still reachable): tensor storage must outlive
  // every static object that might hold a Tensor.
  static Arena* instance = new Arena();
  return *instance;
}

Arena::ThreadCache* Arena::local_cache() {
  if (tls_cache_ != nullptr || tls_exited_) return tls_cache_;
  // First use on this thread. The cache's destructor returns its blocks
  // when the thread exits; the pipeline's stage workers are new threads
  // every iteration, so that happens once per step.
  thread_local ThreadCache cache;
  tls_cache_ = &cache;
  return tls_cache_;
}

float* Arena::bump_locked(std::size_t granules) {
  for (Slab& slab : slabs_) {
    if (slab.capacity - slab.used >= granules) {
      float* p = slab.data.get() + slab.used;
      slab.used += granules;
      return p;
    }
  }
  Slab slab;
  slab.capacity = std::max(granules, kSlabFloats);
  slab.data = std::make_unique_for_overwrite<float[]>(slab.capacity);
  slab.used = granules;
  ++stats_.slab_allocs;
  stats_.slab_bytes += slab.capacity * sizeof(float);
  slabs_.push_back(std::move(slab));
  return slabs_.back().data.get();
}

void Arena::fold_locked(ThreadCache& cache) {
  stats_.hits += cache.hits;
  stats_.misses += cache.misses;
  in_use_ += cache.in_use;
  cache.hits = cache.misses = 0;
  cache.in_use = 0;
}

void Arena::drain_locked(ThreadCache& cache) {
  fold_locked(cache);
  for (auto& [granules, list] : cache.lists) {
    const std::size_t bytes = list.size() * granules * sizeof(float);
    held_ -= bytes;
    stats_.bytes_free += bytes;
    std::vector<float*>& shared = free_lists_[granules];
    shared.insert(shared.end(), list.begin(), list.end());
  }
  cache.lists.clear();
}

float* Arena::refill(ThreadCache& cache, std::size_t granules) {
  std::lock_guard<std::mutex> lock(mu_);
  fold_locked(cache);
  float* p = nullptr;
  const std::size_t bytes = granules * sizeof(float);
  auto it = free_lists_.find(granules);
  if (it != free_lists_.end() && !it->second.empty()) {
    p = it->second.back();
    it->second.pop_back();
    ++stats_.hits;
    stats_.bytes_free -= bytes;
  } else {
    p = bump_locked(granules);
    ++stats_.misses;
  }
  held_ += bytes;
  stats_.high_water_bytes = std::max(stats_.high_water_bytes, held_);
  return p;
}

void Arena::hand_back(ThreadCache& cache, std::vector<float*>& list,
                      std::size_t granules) {
  std::lock_guard<std::mutex> lock(mu_);
  fold_locked(cache);
  // The oldest half goes; the most recently released blocks, likeliest to
  // be in this core's cache, stay.
  const auto n = static_cast<std::ptrdiff_t>(list.size() / 2);
  std::vector<float*>& shared = free_lists_[granules];
  shared.insert(shared.end(), list.begin(), list.begin() + n);
  list.erase(list.begin(), list.begin() + n);
  const std::size_t bytes =
      static_cast<std::size_t>(n) * granules * sizeof(float);
  held_ -= bytes;
  stats_.bytes_free += bytes;
}

float* Arena::take(ThreadCache& cache, std::size_t granules) {
  std::vector<float*>& list = cache.lists[granules];
  float* p = nullptr;
  if (list.empty()) {
    p = refill(cache, granules);
  } else {
    p = list.back();
    list.pop_back();
    ++cache.hits;
  }
  cache.in_use += static_cast<std::int64_t>(granules * sizeof(float));
  return p;
}

void Arena::park(ThreadCache& cache, float* p, std::size_t granules) {
  std::vector<float*>& list = cache.lists[granules];
  list.push_back(p);
  cache.in_use -= static_cast<std::int64_t>(granules * sizeof(float));
  if (list.size() > kThreadCacheCap) hand_back(cache, list, granules);
}

float* Arena::allocate(std::size_t numel) {
  if (numel == 0) return nullptr;
  if (ThreadCache* cache = local_cache()) return take(*cache, rounded(numel));
  ThreadCache transient;  // the thread is exiting; this drains on return
  return take(transient, rounded(numel));
}

void Arena::release(float* p, std::size_t numel) {
  if (p == nullptr || numel == 0) return;
  if (ThreadCache* cache = local_cache()) {
    park(*cache, p, rounded(numel));
  } else {
    ThreadCache transient;
    park(transient, p, rounded(numel));
  }
}

void Arena::reserve(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t want = (bytes + sizeof(float) - 1) / sizeof(float);
  // Only un-bumped slab space counts as spare: free-listed blocks are
  // bound to their size class and cannot serve arbitrary new shapes, so
  // counting them would let reserve() under-provision.
  std::size_t spare = 0;
  for (const Slab& slab : slabs_) spare += slab.capacity - slab.used;
  if (spare >= want) return;
  Slab slab;
  slab.capacity = std::max(want - spare, kSlabFloats);
  slab.data = std::make_unique_for_overwrite<float[]>(slab.capacity);
  ++stats_.slab_allocs;
  stats_.slab_bytes += slab.capacity * sizeof(float);
  slabs_.push_back(std::move(slab));
}

ArenaStats Arena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ArenaStats out = stats_;
  std::int64_t in_use = in_use_;
  if (const ThreadCache* own = tls_cache_) {
    out.hits += own->hits;
    out.misses += own->misses;
    in_use += own->in_use;
  }
  out.bytes_in_use =
      static_cast<std::size_t>(std::max<std::int64_t>(in_use, 0));
  // Blocks parked in thread caches are free too: everything held outside
  // the shared lists that is not live.
  out.bytes_free += held_ - std::min(held_, out.bytes_in_use);
  return out;
}

void Arena::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  if (ThreadCache* own = tls_cache_) drain_locked(*own);
  // Free-listed blocks point into slabs, so the lists must be dropped
  // before any slab can be. A slab is removable only when nothing of it
  // was ever handed out or everything handed out has been freed -- the
  // conservative test here is "nothing held anywhere": while blocks are
  // live, or parked in another running thread's cache, we only drop the
  // shared free lists.
  free_lists_.clear();
  stats_.bytes_free = 0;
  if (held_ == 0) {
    for (const Slab& slab : slabs_) {
      stats_.slab_bytes -= slab.capacity * sizeof(float);
    }
    slabs_.clear();
  }
}

ArenaBuffer::ArenaBuffer(std::size_t numel, bool zeroed) : size_(numel) {
  data_ = Arena::global().allocate(numel);
  if (zeroed && data_ != nullptr) {
    std::memset(data_, 0, numel * sizeof(float));
  }
}

ArenaBuffer::ArenaBuffer(const ArenaBuffer& other) : size_(other.size_) {
  data_ = Arena::global().allocate(size_);
  if (data_ != nullptr) {
    std::memcpy(data_, other.data_, size_ * sizeof(float));
    g_buffer_copies.fetch_add(1, std::memory_order_relaxed);
  }
}

ArenaBuffer& ArenaBuffer::operator=(const ArenaBuffer& other) {
  if (this == &other) return *this;
  // Reuse the existing block only on an exact size match; mismatched
  // assignment swaps in a fresh allocation.
  if (size_ != other.size_) {
    reset();
    data_ = Arena::global().allocate(other.size_);
    size_ = other.size_;
  }
  if (data_ != nullptr) {
    std::memcpy(data_, other.data_, size_ * sizeof(float));
    g_buffer_copies.fetch_add(1, std::memory_order_relaxed);
  }
  return *this;
}

ArenaBuffer::ArenaBuffer(ArenaBuffer&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

ArenaBuffer& ArenaBuffer::operator=(ArenaBuffer&& other) noexcept {
  if (this == &other) return *this;
  reset();
  data_ = other.data_;
  size_ = other.size_;
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

ArenaBuffer::~ArenaBuffer() { reset(); }

void ArenaBuffer::reset() {
  Arena::global().release(data_, size_);
  data_ = nullptr;
  size_ = 0;
}

std::uint64_t ArenaBuffer::copy_count() {
  return g_buffer_copies.load(std::memory_order_relaxed);
}

}  // namespace autopipe::model
