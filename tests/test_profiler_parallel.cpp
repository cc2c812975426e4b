/// Profiler accounting and OpenMP helper semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/profiler.hpp"
#include "util/parallel.hpp"

namespace {

TEST(Profiler, DisabledByDefaultAndRecordsWhenEnabled) {
  auto& p = nc::core::Profiler::instance();
  p.clear();
  EXPECT_FALSE(p.enabled());

  p.set_enabled(true);
  p.record("conv_a", 0.010, 2e6, 8, 128, 64);
  p.record("conv_a", 0.020, 4e6, 8, 128, 64);
  p.record("conv_b", 0.005, 1e6, 2, 64, 16);
  p.set_enabled(false);

  const auto entries = p.entries();
  ASSERT_EQ(entries.size(), 2u);
  // Sorted by descending total time.
  EXPECT_EQ(entries[0].first, "conv_a");
  EXPECT_NEAR(entries[0].second.total_s, 0.030, 1e-12);
  EXPECT_EQ(entries[0].second.calls, 2u);
  EXPECT_NEAR(entries[0].second.flops, 6e6, 1.0);
  EXPECT_EQ(entries[0].second.gemm_m, 8);
  EXPECT_EQ(entries[1].first, "conv_b");

  const std::string report = p.report();
  EXPECT_NE(report.find("conv_a"), std::string::npos);
  EXPECT_NE(report.find("conv_b"), std::string::npos);
  p.clear();
  EXPECT_TRUE(p.entries().empty());
}

TEST(Profiler, ThreadSafeRecording) {
  auto& p = nc::core::Profiler::instance();
  p.clear();
  p.set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) p.record("shared", 0.001, 100.0);
    });
  }
  for (auto& t : threads) t.join();
  p.set_enabled(false);
  const auto entries = p.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].second.calls, 8000u);
  p.clear();
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> counts(1000);
  nc::util::parallel_for(0, 1000, [&](std::int64_t i) {
    counts[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleElementRanges) {
  int calls = 0;
  nc::util::parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  nc::util::parallel_for(3, 2, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  nc::util::parallel_for(7, 8, [&](std::int64_t i) {
    EXPECT_EQ(i, 7);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, GrainSuppressesParallelismButNotExecution) {
  // With a grain larger than the trip count the loop must still run — just
  // serially (counts checked; serial execution itself is an implementation
  // detail we cannot observe portably).
  std::vector<int> hits(64, 0);
  nc::util::parallel_for(
      0, 64, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)] += 1; },
      1 << 20);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, NestedInvocationStaysCorrect) {
  // An inner parallel_for inside an outer one must serialize (no nested omp
  // regions) and still produce correct results.
  std::vector<std::atomic<int>> counts(256);
  nc::util::parallel_for(0, 16, [&](std::int64_t outer) {
    nc::util::parallel_for(0, 16, [&](std::int64_t inner) {
      counts[static_cast<std::size_t>(outer * 16 + inner)].fetch_add(1);
    });
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelHelpers, ThreadCountIsPositive) {
  EXPECT_GE(nc::util::num_threads(), 1);
  EXPECT_GE(nc::util::thread_index(), 0);
}

}  // namespace
