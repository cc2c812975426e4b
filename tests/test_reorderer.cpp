/// Reorderer: the one in-order emission cursor behind an ordered
/// StreamPipeline and every CompressionService session.  Single-threaded
/// cases pin down the cursor (gaps, stale puts, a throwing sink, done());
/// the concurrent case checks the one-drainer rule that keeps sink calls
/// apart although the sink runs with the caller's lock released.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "codec/reorderer.hpp"
#include "tests/stream_test_utils.hpp"

namespace {

using nc::codec::Reorderer;
using Emitted = std::vector<std::pair<std::uint64_t, int>>;

TEST(Reorderer, OutOfOrderPutsEmitInOrderAndGapsAdvanceTheCursor) {
  std::mutex m;
  std::unique_lock<std::mutex> lock(m);
  Reorderer<int> r;
  Emitted got;
  bool done_inside_sink = true;
  const auto sink = [&](std::uint64_t seq, int&& v) {
    got.emplace_back(seq, v);
    // The caller's lock is free during the call, and a drain in progress
    // is not done even though the cursor has passed this seq.
    std::lock_guard<std::mutex> inner(m);
    done_inside_sink = done_inside_sink && r.done(seq + 1);
  };

  r.put(2, 20);
  r.drain(lock, sink);
  EXPECT_TRUE(got.empty());  // 0 and 1 still missing
  r.put(1, std::nullopt);    // a failed item: a gap, not a wait
  r.drain(lock, sink);
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(r.done(1));
  r.put(0, 0);
  r.drain(lock, sink);
  EXPECT_EQ(got, (Emitted{{0, 0}, {2, 20}}));
  EXPECT_FALSE(done_inside_sink);
  EXPECT_TRUE(r.done(3));
  EXPECT_FALSE(r.done(4));

  // A trailing gap completes the range without a sink call.
  r.put(4, std::nullopt);
  r.put(3, 30);
  r.drain(lock, sink);
  EXPECT_EQ(got.back(), (std::pair<std::uint64_t, int>{3, 30}));
  EXPECT_EQ(got.size(), 3u);
  EXPECT_TRUE(r.done(5));
}

TEST(Reorderer, PutBelowTheCursorIsIgnored) {
  std::mutex m;
  std::unique_lock<std::mutex> lock(m);
  Reorderer<int> r;
  Emitted got;
  const auto sink = [&](std::uint64_t seq, int&& v) { got.emplace_back(seq, v); };
  r.put(0, 1);
  r.drain(lock, sink);
  // Seq 0 is behind the cursor: kept, it would block every later seq.
  r.put(0, 99);
  r.put(1, 2);
  r.drain(lock, sink);
  EXPECT_EQ(got, (Emitted{{0, 1}, {1, 2}}));
  EXPECT_TRUE(r.done(2));
}

TEST(Reorderer, ThrowingSinkLosesItsItemWhileTheCursorAdvances) {
  std::mutex m;
  std::unique_lock<std::mutex> lock(m);
  Reorderer<int> r;
  Emitted got;
  const auto sink = [&](std::uint64_t seq, int&& v) {
    if (seq == 1) throw std::runtime_error("sink refused");
    got.emplace_back(seq, v);
  };
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    r.put(seq, static_cast<int>(seq) * 10);
  }
  r.drain(lock, sink);
  EXPECT_TRUE(lock.owns_lock());  // handed back locked, as it came in
  EXPECT_EQ(got, (Emitted{{0, 0}, {2, 20}}));
  EXPECT_TRUE(r.done(3));
}

TEST(Reorderer, ConcurrentDrainersNeverOverlapTheSink) {
  // Four threads put a shuffled sequence, each draining after its put and
  // pausing between puts like a worker between batches; the sink sleeps as
  // long, so other threads put (and try to drain) while it runs.  Every
  // seventh seq is a gap.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kItems = 400;
  std::vector<std::uint64_t> order(kItems);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::shuffle(order.begin(), order.end(), std::mt19937(2024));

  std::mutex m;
  Reorderer<int> r;
  std::atomic<int> in_sink{0};
  std::atomic<int> overlaps{0};
  nc::testutil::SeqLog log;
  const auto sink = [&](std::uint64_t seq, int&& v) {
    if (in_sink.fetch_add(1) != 0) overlaps.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    EXPECT_EQ(static_cast<std::uint64_t>(v), seq);
    log.push(seq);
    in_sink.fetch_sub(1);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < order.size();
           i += kThreads) {
        const std::uint64_t seq = order[i];
        {
          std::unique_lock<std::mutex> lock(m);
          r.put(seq, seq % 7 == 3 ? std::nullopt
                                  : std::optional<int>(static_cast<int>(seq)));
          r.drain(lock, sink);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(overlaps.load(), 0);
  std::vector<std::uint64_t> expected;
  for (std::uint64_t seq = 0; seq < kItems; ++seq) {
    if (seq % 7 != 3) expected.push_back(seq);
  }
  EXPECT_EQ(log.snapshot(), expected);
  std::lock_guard<std::mutex> lock(m);
  EXPECT_TRUE(r.done(kItems));
}

}  // namespace
