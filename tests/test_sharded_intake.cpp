/// Sharded work-stealing intake: shard routing, stealing, cross-shard
/// backpressure, the pop_batch terminal contract, and — at the pipeline
/// level — the fairness guarantee the stealing exists for: a stalled
/// worker's shard backlog is drained by its siblings, so no wedge is ever
/// stranded in a parked shard at finish().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "codec/sharded_queue.hpp"
#include "codec/stream_pipeline.hpp"
#include "tests/stream_test_utils.hpp"

namespace {

using nc::codec::ShardedQueue;
using nc::codec::StreamOptions;
using nc::codec::StreamPipeline;
using nc::testutil::IntPipeline;
using nc::testutil::spin_until;
using nc::testutil::StallLatch;

// ---------------------------------------------------------------------------
// ShardedQueue as a concurrent container
// ---------------------------------------------------------------------------

TEST(ShardedQueue, RoundRobinRoutesAcrossShardsAndOwnShardDrainsFirst) {
  // Tickets 0..5 round-robin over 2 shards: shard0 = {0,2,4}, shard1 =
  // {1,3,5}.  A worker drains its own shard first (not stolen), then
  // steals the sibling's batch.
  ShardedQueue<int> q(/*shards=*/2, /*capacity=*/8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.try_push(i));
  EXPECT_EQ(q.size(), 6u);

  std::vector<int> got;
  bool stolen = true;
  EXPECT_EQ(q.pop_batch(/*worker=*/0, got, 3, /*adaptive_share=*/0, &stolen), 3u);
  EXPECT_FALSE(stolen);
  EXPECT_EQ(got, (std::vector<int>{0, 2, 4}));

  got.clear();
  EXPECT_EQ(q.pop_batch(/*worker=*/0, got, 3, /*adaptive_share=*/0, &stolen), 3u);
  EXPECT_TRUE(stolen);  // own shard dry: served from the sibling
  EXPECT_EQ(got, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(ShardedQueue, TryPushFallsBackToSiblingAndFailsOnlyWhenAllFull) {
  // Capacity 4 over 2 shards = 2 per shard.  Pushing 4 items fills both
  // shards (round-robin), a 5th fails; the round-robin target being full
  // must not fail a push while the sibling has space.
  ShardedQueue<int> q(2, 4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(4));  // every shard full: real backpressure

  // Drain shard0 only; the next two pushes both land (one round-robin, one
  // fallback into the freed shard), and the one after that fails again.
  std::vector<int> got;
  ASSERT_EQ(q.pop_batch(/*worker=*/0, got, 2, /*adaptive_share=*/0, nullptr), 2u);
  EXPECT_EQ(got, (std::vector<int>{0, 2}));
  EXPECT_TRUE(q.try_push(5));
  EXPECT_TRUE(q.try_push(6));
  EXPECT_FALSE(q.try_push(7));
  EXPECT_EQ(q.size(), 4u);
}

TEST(ShardedQueue, PopBatchZeroIffClosedAndDrained) {
  ShardedQueue<int> q(2, 8);
  // An open, empty intake parks the popper until an item arrives — a 0
  // return is never a spurious wakeup.
  std::thread pusher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (void)q.try_push(7);
  });
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(0, out, 2, /*adaptive_share=*/0, nullptr), 1u);
  EXPECT_EQ(out, (std::vector<int>{7}));
  pusher.join();

  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    q.close();
  });
  EXPECT_EQ(q.pop_batch(0, out, 2, /*adaptive_share=*/0, nullptr), 0u);  // closed and drained...
  closer.join();
  EXPECT_EQ(q.pop_batch(0, out, 2, /*adaptive_share=*/0, nullptr), 0u);  // ...and it is terminal
}

TEST(ShardedQueue, PopBatchMaxItemsZeroStillDeliversOne) {
  // max_items == 0 is clamped to 1: returning 0 from an open intake would
  // violate the 0-iff-closed contract above.
  ShardedQueue<int> q(2, 4);
  ASSERT_TRUE(q.try_push(3));
  ASSERT_TRUE(q.try_push(4));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(/*worker=*/0, out, 0, /*adaptive_share=*/0, nullptr), 1u);
  EXPECT_EQ(out, (std::vector<int>{3}));
}

TEST(ShardedQueue, CloseWhileDrainDeliversRemainingItemsAcrossShards) {
  // Three shards, and one: the intake of every one-worker pipeline, which
  // keeps the exact capacity (no rounding) and plain FIFO order.
  const std::vector<int> all{0, 1, 2, 3, 4, 5, 6};
  for (const std::size_t shards : {std::size_t{3}, std::size_t{1}}) {
    SCOPED_TRACE(shards);
    ShardedQueue<int> q(shards, /*capacity=*/7);
    EXPECT_EQ(q.capacity(), shards == 1 ? 7u : 9u);  // 3 shards: 3 each
    for (int i = 0; i < 7; ++i) ASSERT_TRUE(q.try_push(i));
    if (shards == 1) {
      EXPECT_FALSE(q.try_push(7));  // full at exactly 7
    }
    q.close();
    EXPECT_FALSE(q.try_push(99));  // closed to producers
    // A closed intake still hands out everything it holds — from every
    // shard, to any worker — before signalling terminal drain.
    std::vector<int> drained;
    while (q.pop_batch(/*worker=*/1, drained, 2, /*adaptive_share=*/0, nullptr) != 0) {
    }
    if (shards == 1) {
      EXPECT_EQ(drained, all);  // FIFO
    }
    std::sort(drained.begin(), drained.end());
    EXPECT_EQ(drained, all);
  }
}

TEST(ShardedQueue, WaitForSpaceUnblocksOnPopAndOnClose) {
  ShardedQueue<int> q(2, 2);  // 1 slot per shard
  ASSERT_TRUE(q.try_push(0));
  ASSERT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));

  std::atomic<bool> unblocked{false};
  std::thread waiter([&] {
    EXPECT_TRUE(q.wait_for_space());  // space appears: true
    unblocked.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unblocked.load());
  std::vector<int> out;
  ASSERT_EQ(q.pop_batch(0, out, 1, /*adaptive_share=*/0, nullptr), 1u);
  waiter.join();
  EXPECT_TRUE(unblocked.load());

  ASSERT_TRUE(q.try_push(2));  // full again
  std::thread closer([&] { q.close(); });
  EXPECT_FALSE(q.wait_for_space());  // closed: false
  closer.join();
}

TEST(ShardedQueue, DepthHighWaterTracksAggregateDepth) {
  ShardedQueue<int> q(2, 16);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(i));
  std::vector<int> out;
  while (q.size() > 0) (void)q.pop_batch(0, out, 4, /*adaptive_share=*/0, nullptr);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.try_push(i));
  EXPECT_EQ(q.depth_high_water(), 5u);  // the first wave, not the second
}

TEST(ShardedQueue, ConcurrentProducersAndWorkersDeliverEveryItemOnce) {
  constexpr int kProducers = 3, kWorkers = 4, kPerProducer = 200;
  ShardedQueue<int> q(kWorkers, 32);
  std::atomic<int> next{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = next.fetch_add(1);
        while (!q.try_push(v)) std::this_thread::yield();
      }
    });
  }
  std::mutex seen_mutex;
  std::vector<int> seen;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::vector<int> got;
      while (q.pop_batch(static_cast<std::size_t>(w), got, 8, /*adaptive_share=*/0, nullptr) != 0) {
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen.insert(seen.end(), got.begin(), got.end());
        got.clear();
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : workers) t.join();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);  // each exactly once
  }
}

// ---------------------------------------------------------------------------
// Pipeline-level steal fairness and ordered-mode liveness
// ---------------------------------------------------------------------------

TEST(ShardedIntakePipeline, SiblingsStealAStalledWorkersBacklog) {
  // One worker stalls inside the transform; round-robin keeps routing
  // submissions into its shard.  The free worker must drain that backlog by
  // stealing — every wedge except the one in the stalled worker's hands
  // completes while it sleeps, so nothing is stranded in a parked shard.
  StreamOptions opt;
  opt.queue_capacity = 64;
  opt.batch_size = 1;
  opt.n_workers = 2;

  StallLatch stall;
  std::atomic<int> completed{0};
  IntPipeline pipeline(
      opt,
      [&](std::vector<int>&& in) {
        if (in.front() == 0) stall.wait();
        completed.fetch_add(static_cast<int>(in.size()));
        return std::move(in);
      },
      nullptr, [](std::uint64_t, int&&) {});

  const int n = 16;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  // Everything except the stalled wedge must complete without the release.
  EXPECT_TRUE(spin_until([&] { return completed.load() >= n - 1; }));
  EXPECT_EQ(completed.load(), n - 1);

  stall.release();
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_failed, 0);
  // Half the submissions were routed to the sleeping worker's shard: the
  // free worker can only have finished them by stealing.
  EXPECT_GT(stats.batches_stolen, 0);
}

TEST(ShardedIntakePipeline, FinishDrainsEveryShardAtClose) {
  // finish() must not return while any shard still holds accepted items,
  // whichever worker's shard they sit in.
  StreamOptions opt;
  opt.queue_capacity = 128;
  opt.batch_size = 4;
  opt.n_workers = 4;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t, int&&) { received.fetch_add(1); });
  const int n = 100;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();  // close + drain: no stragglers
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(received.load(), n);
}

TEST(ShardedIntakePipeline, OrderedReorderFinishesUnderContention) {
  // Ordered emission over a sharded intake with uneven per-item latency:
  // pops are not globally FIFO, so outputs finish far out of order (the
  // next-to-emit item may still sit in a shard while every worker holds a
  // later batch); the run must drain, stay in order and count every item.
  StreamOptions opt;
  opt.queue_capacity = 64;
  opt.batch_size = 2;
  opt.n_workers = 4;
  opt.ordered = true;
  std::vector<std::uint64_t> seqs;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        // Deterministic jitter: some batches take 30x longer than others.
        std::this_thread::sleep_for(
            std::chrono::microseconds(50 + (in.front() % 7) * 450));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { seqs.push_back(seq); });
  const int n = 200;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_failed, 0);
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST(ShardedIntakePipeline, ExplicitShardCountDecouplesFromWorkers) {
  // The intake has a shard per pool slot, not per live worker: a
  // manual-mode elastic pool of 8 with 2 live workers has 8 shards, and the
  // 6 owned by parked workers fill only once the 2 live shards are full.
  // The live workers must reach them by stealing.
  StreamOptions opt;
  opt.elastic = true;
  opt.scale_interval_s = 0.0;  // manual: no controller wakes a parked worker
  opt.min_workers = 1;
  opt.max_workers = 8;
  opt.n_workers = 2;
  opt.queue_capacity = 64;
  opt.batch_size = 2;
  StallLatch stall;  // holds both live workers while the intake fills
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt,
      [&](std::vector<int>&& in) {
        stall.wait();
        return std::move(in);
      },
      nullptr, [&](std::uint64_t, int&&) { received.fetch_add(1); });
  EXPECT_EQ(pipeline.live_workers(), 2u);
  EXPECT_EQ(pipeline.intake_capacity(), 64u);
  const int n = 40;  // > the 16 slots of the live shards plus 4 in hand
  for (int i = 0; i < n; ++i) EXPECT_TRUE(pipeline.try_submit(i));
  stall.release();
  // Parked workers stay asleep until finish(): only stealing delivers all.
  EXPECT_TRUE(spin_until([&] { return received.load() == n; }));
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(received.load(), n);
  EXPECT_GT(stats.batches_stolen, 0);
}

}  // namespace
