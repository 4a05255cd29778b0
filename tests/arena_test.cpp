// Arena allocator suite: seeded alloc/free storms with poison-fill
// checksums (reuse must never overlap live buffers), high-water accounting
// against the cost model's memory prediction, steady-state hit-rate
// regressions for the training loop (zero mallocs on the hot path), a
// concurrent-stage allocation test for TSan, the per-thread caches'
// handoff, thread-exit and trim paths, and reserve()'s residency (reserved
// slab pages stay untouched until a tensor uses them).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "costmodel/memory.h"
#include "model/arena.h"
#include "model/tensor.h"
#include "runtime/train_session.h"
#include "util/rng.h"

// Sanitizer runtimes keep shadow memory for every allocation, resident by
// design, so a residency bound only holds in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AUTOPIPE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define AUTOPIPE_TEST_SANITIZED 1
#endif
#endif

namespace autopipe::model {
namespace {

/// Deterministic per-buffer fill pattern derived from a tag.
float pattern(std::uint64_t tag, std::size_t i) {
  return static_cast<float>((tag * 2654435761u + i * 40503u) & 0xffff);
}

TEST(Arena, SeededAllocFreeStormNeverOverlapsLiveBuffers) {
  // Random storm of allocations and frees. Every live buffer is filled
  // with its own pattern at birth and verified just before death: if the
  // arena ever handed the same granule range to two live buffers, one
  // pattern would trample the other.
  util::Rng rng(2024);
  struct Live {
    ArenaBuffer buf;
    std::uint64_t tag;
  };
  std::vector<Live> live;
  for (int step = 0; step < 4000; ++step) {
    const bool grow = live.empty() || rng.next_below(100) < 55;
    if (grow) {
      const std::size_t numel = 1 + rng.next_below(3000);
      Live entry{ArenaBuffer(numel, /*zeroed=*/false),
                 static_cast<std::uint64_t>(step)};
      for (std::size_t i = 0; i < numel; ++i) {
        entry.buf.data()[i] = pattern(entry.tag, i);
      }
      live.push_back(std::move(entry));
    } else {
      const std::size_t victim = rng.next_below(live.size());
      const Live& entry = live[victim];
      for (std::size_t i = 0; i < entry.buf.size(); ++i) {
        ASSERT_EQ(entry.buf.data()[i], pattern(entry.tag, i))
            << "buffer " << victim << " trampled at " << i;
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  for (const Live& entry : live) {
    for (std::size_t i = 0; i < entry.buf.size(); ++i) {
      ASSERT_EQ(entry.buf.data()[i], pattern(entry.tag, i));
    }
  }
}

TEST(Arena, FreedBlocksAreReusedBySizeClass) {
  const auto before = Arena::global().stats();
  { ArenaBuffer warm(512); }  // seed the 512-granule free list
  ArenaBuffer again(512);
  const auto after = Arena::global().stats();
  EXPECT_GE(after.hits, before.hits + 1) << "free-listed block not reused";
}

TEST(Arena, StatsBalanceAcrossAllocRelease) {
  const auto before = Arena::global().stats();
  {
    ArenaBuffer a(1000), b(64), c(1);
    const auto during = Arena::global().stats();
    // 1000 -> 1024, 64 -> 64, 1 -> 64 granule rounding.
    EXPECT_EQ(during.bytes_in_use - before.bytes_in_use,
              (1024 + 64 + 64) * sizeof(float));
    EXPECT_GE(during.high_water_bytes, during.bytes_in_use);
  }
  const auto after = Arena::global().stats();
  EXPECT_EQ(after.bytes_in_use, before.bytes_in_use);
}

TEST(Arena, ReserveMakesFollowingAllocationsSlabFree)
{
  Arena& arena = Arena::global();
  arena.reserve(32u << 20);  // 32 MiB spare
  const auto before = arena.stats();
  std::vector<ArenaBuffer> bufs;
  std::size_t total = 0;
  while (total < (24u << 20)) {  // allocate 24 MiB out of the 32 spare
    bufs.emplace_back(4096);
    total += 4096 * sizeof(float);
  }
  const auto after = arena.stats();
  EXPECT_EQ(after.slab_allocs, before.slab_allocs)
      << "allocation within reserved capacity grew a slab";
}

/// This process's resident set (VmRSS), from /proc/self/statm.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(Arena, ReserveLeavesSlabPagesUntouchedUntilUsed) {
  Arena& arena = Arena::global();
  const auto before = arena.stats();
  const std::size_t rss_before = resident_bytes();
  // Asking for more than every existing slab holds forces a new slab of at
  // least 64 MiB, whatever earlier tests left in this process's arena.
  constexpr std::size_t kReserve = std::size_t{64} << 20;
  arena.reserve(before.slab_bytes + kReserve);
  const auto reserved = arena.stats();
  const std::size_t grown = reserved.slab_bytes - before.slab_bytes;
  ASSERT_GE(grown, kReserve);
  const std::size_t rss_grown =
      resident_bytes() - std::min(resident_bytes(), rss_before);
#ifndef AUTOPIPE_TEST_SANITIZED
  EXPECT_LT(rss_grown, grown / 8)
      << "reserve() made " << rss_grown << " of " << grown
      << " reserved bytes resident";
#else
  (void)rss_grown;
#endif

  // A zeroed tensor carved from the reserve reads all zeros.
  const Tensor t({static_cast<int>(kReserve / 2 / sizeof(float))});
  EXPECT_EQ(arena.stats().slab_allocs, reserved.slab_allocs);
  EXPECT_TRUE(std::all_of(t.data(), t.data() + t.numel(),
                          [](float v) { return v == 0.0f; }));
}

TEST(Arena, ConcurrentStageAllocationIsRaceFree) {
  // Four "stages" hammering the shared arena concurrently -- the TSan CI
  // job runs this binary to prove the single-lock design is race free.
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([w] {
      util::Rng rng(100 + w);
      for (int step = 0; step < 500; ++step) {
        ArenaBuffer buf(1 + rng.next_below(2000), /*zeroed=*/false);
        buf.data()[0] = static_cast<float>(w);
        buf.data()[buf.size() - 1] = static_cast<float>(step);
        EXPECT_EQ(buf.data()[0], static_cast<float>(w));
      }
    });
  }
  for (std::thread& t : workers) t.join();
}

TEST(Arena, CrossThreadHandoffHandsBlocksBack) {
  // A producer allocates one size class and a consumer frees it, as the
  // stage before and the stage after a channel do. The consumer's cache
  // would grow by a block per round and the producer bump a fresh one
  // every time if an overflowing class were not handed back; with the
  // hand-back both circulate a bounded set of blocks.
  constexpr int kRounds = 4000;
  constexpr std::size_t kNumel = 4096 + 7;  // a class no other test uses
  constexpr std::size_t kDepth = 4;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<ArenaBuffer> queue;
  const auto before = Arena::global().stats();
  std::thread producer([&] {
    for (int r = 0; r < kRounds; ++r) {
      ArenaBuffer buf(kNumel, /*zeroed=*/false);
      buf.data()[0] = static_cast<float>(r);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return queue.size() < kDepth; });
      queue.push_back(std::move(buf));
      cv.notify_all();
    }
  });
  std::thread consumer([&] {
    for (int r = 0; r < kRounds; ++r) {
      ArenaBuffer buf;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty(); });
        buf = std::move(queue.front());
        queue.pop_front();
        cv.notify_all();
      }
      EXPECT_EQ(buf.data()[0], static_cast<float>(r));
    }  // buf dies here, on the consumer
  });
  producer.join();
  consumer.join();
  const auto after = Arena::global().stats();
  // Blocks ever bumped: the queue, the producer's refill batch and the
  // consumer's cache, with slack -- far below one per round.
  EXPECT_LE(after.misses - before.misses, 4 * Arena::kThreadCacheCap);
  EXPECT_LE(after.slab_allocs - before.slab_allocs, 1u);
  EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
            static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(after.bytes_in_use, before.bytes_in_use);
}

TEST(Arena, ThreadExitReturnsCachedBlocks) {
  // A worker parks a full class in its cache and exits: the blocks must
  // reach the shared lists, so a fresh thread's allocations of that class
  // are all hits and grow no slab.
  constexpr std::size_t kNumel = 3000 + 11;  // a class no other test uses
  constexpr std::size_t kBlocks = Arena::kThreadCacheCap;
  const auto allocate_all = [&] {
    std::vector<ArenaBuffer> bufs;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      bufs.emplace_back(kNumel, /*zeroed=*/false);
    }
  };  // all kBlocks are released at once and stay parked: none overflows
  const auto base = Arena::global().stats();
  std::thread first(allocate_all);
  first.join();
  const auto parked = Arena::global().stats();
  EXPECT_EQ(parked.bytes_in_use, base.bytes_in_use);
  EXPECT_GE(parked.bytes_free - base.bytes_free,
            kBlocks * ((kNumel + 63) / 64 * 64) * sizeof(float));

  std::thread second(allocate_all);
  second.join();
  const auto after = Arena::global().stats();
  EXPECT_EQ(after.misses, parked.misses) << "exited thread's blocks lost";
  EXPECT_EQ(after.hits - parked.hits, kBlocks);
  EXPECT_EQ(after.slab_allocs, parked.slab_allocs);
  EXPECT_EQ(after.bytes_in_use, base.bytes_in_use);
}

TEST(Arena, TrimFreesSlabsOnceWorkersHaveExited) {
  // Blocks parked by workers that have exited are back in the shared
  // lists, so a cold-arena trim() with nothing live still frees every
  // slab (a cache that miscounted live bytes would keep them all).
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([w] {
      util::Rng rng(300 + w);
      std::vector<ArenaBuffer> live;
      for (int step = 0; step < 200; ++step) {
        live.emplace_back(1 + rng.next_below(5000), /*zeroed=*/false);
        if (live.size() > 8) live.erase(live.begin());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  { ArenaBuffer own(1234); }  // one parked in this thread's cache too
  const auto before = Arena::global().stats();
  if (before.bytes_in_use != 0) {
    GTEST_SKIP() << "other tensors are live in this process";
  }
  Arena::global().trim();
  const auto after = Arena::global().stats();
  EXPECT_EQ(after.slab_bytes, 0u);
  EXPECT_EQ(after.bytes_free, 0u);
  EXPECT_EQ(after.bytes_in_use, 0u);
}

TEST(Arena, TensorCopiesAreCountedAndMovesAreNot) {
  const std::uint64_t before = ArenaBuffer::copy_count();
  Tensor a({8, 8});
  Tensor b = a;  // deep copy: counted
  EXPECT_EQ(ArenaBuffer::copy_count(), before + 1);
  const float* payload = b.data();
  Tensor c = std::move(b);  // move: pointer steal, not counted
  EXPECT_EQ(ArenaBuffer::copy_count(), before + 1);
  EXPECT_EQ(c.data(), payload) << "move must not reallocate";
}

class ArenaTrainLoop : public testing::Test {
 protected:
  static runtime::TrainSessionOptions tiny_options() {
    runtime::TrainSessionOptions opts;
    opts.spec.layers = 2;
    opts.spec.hidden = 16;
    opts.spec.heads = 2;
    opts.spec.vocab = 32;
    opts.spec.seq = 4;
    opts.counts = {3, 3};
    opts.micro_batch = 2;
    opts.num_micro_batches = 4;
    return opts;
  }
};

TEST_F(ArenaTrainLoop, SteadyStateIterationsMakeZeroMallocs) {
  // After the warmup iterations every tensor shape repeats, so the hot
  // path must run on size-class cache hits: zero mallocs (slab growth is
  // the only way the arena touches the system allocator) and a ~100% hit
  // rate. This pins the per-op allocation churn fix in linear_backward /
  // layernorm_backward -- a fresh malloc per op would grow slabs here.
  runtime::TrainSession session(tiny_options());
  session.step();  // warmup: first-touch allocations populate free lists
  session.step();
  const auto before = Arena::global().stats();
  constexpr int kSteps = 4;
  for (int i = 0; i < kSteps; ++i) session.step();
  const auto after = Arena::global().stats();
  EXPECT_EQ(after.slab_allocs, before.slab_allocs)
      << "steady-state malloc on hot path";
  // Thread interleaving can shift a transient peak past warmup's, so allow
  // a stray free-list miss, but the steady-state hit rate must stay ~100%.
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  EXPECT_GT(hits, 0u);
  EXPECT_LE(misses, hits / 100) << "hot path misses the size-class cache";
}

TEST_F(ArenaTrainLoop, SteadyStateHandoffMakesNoPayloadCopies) {
  // Copy-free micro-batch handoff: channels and the stage stash move
  // tensors. The only counted copies per iteration are the m micro-batch
  // id injections at the first stage (tiny, and not activation payloads).
  const auto opts = tiny_options();
  runtime::TrainSession session(opts);
  session.step();
  const std::uint64_t before = ArenaBuffer::copy_count();
  session.step();
  const std::uint64_t per_step = ArenaBuffer::copy_count() - before;
  EXPECT_LE(per_step, static_cast<std::uint64_t>(opts.num_micro_batches));
}

TEST_F(ArenaTrainLoop, HighWaterStaysWithinMemoryModelPrediction) {
  // The cost model's per-stage prediction (the same formula
  // TrainSession::init_runtime reserves by, plus parameter state) must
  // upper-bound what training actually keeps live in the arena.
  const auto opts = tiny_options();
  const auto base = Arena::global().stats();

  runtime::TrainSession session(opts);
  for (int i = 0; i < 3; ++i) session.step();
  const auto after = Arena::global().stats();

  const int n = static_cast<int>(opts.counts.size());
  const double tokens =
      static_cast<double>(opts.micro_batch) * opts.spec.seq;
  const double per_block_stash =
      16.0 * tokens * opts.spec.hidden * sizeof(float);
  double predicted = 0;
  for (int s = 0; s < n; ++s) {
    costmodel::StageFootprint fp;
    fp.param_bytes = static_cast<double>(session.model().param_count()) *
                     sizeof(float) / n;
    fp.stash_bytes = opts.counts[s] * per_block_stash;
    fp.work_bytes = 4.0 * per_block_stash;
    const auto est = costmodel::stage_memory(
        fp, s, n, opts.kind, opts.num_micro_batches, 1,
        std::numeric_limits<double>::infinity());
    predicted += est.total_bytes;  // parameter state + stashes + work
  }
  EXPECT_LE(after.high_water_bytes,
            base.high_water_bytes + static_cast<std::size_t>(predicted))
      << "training exceeded the memory model's high-water prediction";
}

}  // namespace
}  // namespace autopipe::model
