/// Generic StreamPipeline semantics, tested with synthetic transforms so the
/// worker-pool machinery (sequencing, ordered emission, failure
/// containment, finish) is exercised without the codec in the way.
/// StreamCompressor / StreamDecompressor are thin adapters over this class —
/// the codec-facing behavior lives in test_codec.cpp and
/// test_stream_decompress.cpp; intake behavior (stealing, backpressure
/// across shards) lives in test_sharded_intake.cpp; the spill tier in
/// test_spill.cpp.  Shared scaffolding: stream_test_utils.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "codec/stream_pipeline.hpp"
#include "tests/stream_test_utils.hpp"
#include "util/parallel.hpp"
#include "util/topology.hpp"

namespace {

using nc::codec::StreamOptions;
using nc::codec::StreamPipeline;
using nc::testutil::IntPipeline;
using nc::testutil::SeqLog;
using nc::testutil::StallLatch;

/// Transform doubling every item; counts completed (returned) transforms.
IntPipeline::BatchFn doubling(std::atomic<int>& completed) {
  return [&completed](std::vector<int>&& in) {
    std::vector<int> out;
    out.reserve(in.size());
    for (const int v : in) out.push_back(2 * v);
    completed.fetch_add(static_cast<int>(in.size()));
    return out;
  };
}

class StreamPipelineIntake : public nc::testutil::IntakeNamedTest {};

NC_INSTANTIATE_SHARDED_NAMES(StreamPipelineIntake);

TEST_P(StreamPipelineIntake, GenericTransformProcessesEverySubmission) {
  StreamOptions opt;
  opt.queue_capacity = 16;
  opt.batch_size = 4;
  opt.n_workers = 3;
  std::atomic<int> completed{0};
  std::mutex sink_mutex;
  std::vector<std::pair<std::uint64_t, int>> received;
  IntPipeline pipeline(opt, doubling(completed),
                       [](const int&) { return std::int64_t{4}; },
                       [&](std::uint64_t seq, int&& v) {
                         std::lock_guard<std::mutex> lock(sink_mutex);
                         received.emplace_back(seq, v);
                       });
  const int n = 25;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(stats.wedges_failed, 0);
  EXPECT_EQ(stats.payload_bytes, 4 * n);
  EXPECT_GT(stats.queue_depth_hwm, 0);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(n));
  for (const auto& [seq, v] : received) {
    EXPECT_EQ(v, 2 * static_cast<int>(seq));  // seq identifies the input
  }
  ASSERT_EQ(stats.per_worker.size(), 3u);
  std::int64_t per_worker_sum = 0;
  std::int64_t stolen_sum = 0;
  for (const auto& ws : stats.per_worker) {
    per_worker_sum += ws.wedges_compressed;
    stolen_sum += ws.batches_stolen;
  }
  EXPECT_EQ(per_worker_sum, n);
  EXPECT_EQ(stolen_sum, stats.batches_stolen);
}

TEST_P(StreamPipelineIntake, OrderedModeEmitsInSubmissionOrder) {
  StreamOptions opt;
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 4;
  opt.ordered = true;
  std::atomic<int> completed{0};
  // Ordered mode serializes sink invocations: no lock needed.
  std::vector<std::uint64_t> seqs;
  IntPipeline pipeline(opt, doubling(completed), nullptr,
                       [&](std::uint64_t seq, int&&) { seqs.push_back(seq); });
  const int n = 40;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.payload_bytes, 0);  // null byte counter
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST_P(StreamPipelineIntake, ThrowingTransformLandsInFailedAndKeepsWorkersAlive) {
  for (const bool ordered : {true, false}) {
    SCOPED_TRACE(ordered ? "ordered" : "unordered");
    StreamOptions opt;
    opt.queue_capacity = 16;
    opt.batch_size = 1;  // one victim per failure
    opt.n_workers = 2;
    opt.ordered = ordered;
    SeqLog seqs;
    SeqLog lost;
    IntPipeline pipeline(
        opt,
        [](std::vector<int>&& in) {
          for (const int v : in) {
            if (v % 5 == 3) throw std::runtime_error("poisoned item");
          }
          return std::move(in);
        },
        nullptr, [&](std::uint64_t seq, int&&) { seqs.push(seq); }, {},
        [&](std::uint64_t seq) { lost.push(seq); });
    const int n = 20;
    for (int i = 0; i < n; ++i) pipeline.submit(i);
    const auto stats = pipeline.finish();
    EXPECT_EQ(stats.wedges_in, n);
    EXPECT_EQ(stats.wedges_failed, 4);  // 3, 8, 13, 18
    EXPECT_EQ(stats.wedges_compressed, n - 4);
    // Every failed seq reached on_lost exactly once, in both modes.
    auto lost_seqs = lost.snapshot();
    std::sort(lost_seqs.begin(), lost_seqs.end());
    EXPECT_EQ(lost_seqs, (std::vector<std::uint64_t>{3, 8, 13, 18}));
    // The survivors arrive with exactly the poisoned seqs missing; ordered,
    // the cursor advanced past every failed seq and kept submission order.
    auto emitted = seqs.snapshot();
    if (!ordered) std::sort(emitted.begin(), emitted.end());
    ASSERT_EQ(emitted.size(), static_cast<std::size_t>(n - 4));
    std::size_t at = 0;
    for (int i = 0; i < n; ++i) {
      if (i % 5 == 3) continue;
      EXPECT_EQ(emitted[at++], static_cast<std::uint64_t>(i));
    }
  }
}

TEST_P(StreamPipelineIntake, WrongSizedTransformOutputCountsAsFailure) {
  StreamOptions opt;
  opt.batch_size = 4;
  opt.n_workers = 1;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        in.pop_back();  // contract violation: one output short
        return std::move(in);
      },
      nullptr, [&](std::uint64_t, int&&) { received.fetch_add(1); });
  for (int i = 0; i < 8; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, 0);
  EXPECT_EQ(stats.wedges_failed, 8);
  EXPECT_EQ(received.load(), 0);
}

TEST_P(StreamPipelineIntake, OrderedModeSkipsFailedBatchesWithoutDeadlock) {
  // Failed batches are gaps in the ordered cursor; a mix of failures and
  // successes across more workers than batch slots must still drain and
  // finish.
  StreamOptions opt;
  opt.queue_capacity = 64;
  opt.batch_size = 2;
  opt.n_workers = 4;
  opt.ordered = true;
  std::vector<std::uint64_t> seqs;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        for (const int v : in) {
          if (v % 7 == 2) throw std::runtime_error("poisoned item");
        }
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { seqs.push_back(seq); });
  const int n = 56;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed + stats.wedges_failed, n);
  EXPECT_GT(stats.wedges_failed, 0);
  // Order is preserved across the failure gaps.
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_LT(seqs[i - 1], seqs[i]);
  }
}

TEST_P(StreamPipelineIntake, FinishIdempotentWithGenericTransform) {
  StreamOptions opt;
  opt.batch_size = 2;
  std::atomic<int> completed{0};
  IntPipeline pipeline(opt, doubling(completed), nullptr,
                       [](std::uint64_t, int&&) {});
  for (int i = 0; i < 6; ++i) pipeline.submit(i);
  const auto first = pipeline.finish();
  const auto second = pipeline.finish();
  EXPECT_EQ(first.wedges_compressed, 6);
  EXPECT_EQ(second.wedges_compressed, 6);
  EXPECT_DOUBLE_EQ(second.elapsed_s, first.elapsed_s);
  // Submit after finish: both paths account the loss.
  pipeline.submit(99);
  EXPECT_FALSE(pipeline.try_submit(100));
  EXPECT_EQ(pipeline.finish().wedges_dropped, 2);
}

TEST(StreamPipeline, OrderedSinkCallsNeverOverlapAndFailuresAreGaps) {
  // The ordered sink runs outside the pipeline's locks, so only the
  // Reorderer's one-drainer rule keeps its calls apart.  A sink that sleeps
  // gives four workers every chance to overlap it; every fifth item fails
  // and must become a gap, not a stall.
  StreamOptions opt;
  opt.queue_capacity = 64;
  opt.batch_size = 1;
  opt.n_workers = 4;
  opt.ordered = true;
  std::atomic<int> in_sink{0};
  std::atomic<int> overlaps{0};
  nc::testutil::SeqLog log;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        if (in.front() % 5 == 4) throw std::runtime_error("poisoned item");
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) {
        if (in_sink.fetch_add(1) != 0) overlaps.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        log.push(seq);
        in_sink.fetch_sub(1);
      });
  const int n = 200;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(stats.wedges_failed, n / 5);
  // Strictly increasing, and every seq that did not fail was delivered
  // before finish() returned.
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < n; ++i) {
    if (i % 5 != 4) expected.push_back(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(log.snapshot(), expected);
}

TEST(StreamPipeline, IntakeCapacityRoundsUpToAShardPerWorker) {
  // One intake shard per worker: the effective capacity is queue_capacity
  // rounded up to a multiple of max_workers, exact at one worker.
  std::atomic<int> completed{0};
  StreamOptions opt;
  opt.queue_capacity = 10;
  opt.n_workers = 1;
  IntPipeline one(opt, doubling(completed), nullptr,
                  [](std::uint64_t, int&&) {});
  EXPECT_EQ(one.intake_capacity(), 10u);
  EXPECT_EQ(one.finish().queue_capacity, 10);
  opt.n_workers = 4;
  IntPipeline four(opt, doubling(completed), nullptr,
                   [](std::uint64_t, int&&) {});
  EXPECT_EQ(four.intake_capacity(), 12u);
  EXPECT_EQ(four.finish().queue_capacity, 12);
}

TEST(StreamPipeline, AdaptiveBatchingGrowsWithBacklog) {
  // With a deep backlog a worker's drain grows to batch_size; a released
  // stall guarantees the backlog exists when the worker resumes popping.
  StreamOptions opt;
  opt.queue_capacity = 64;
  opt.batch_size = 8;
  opt.n_workers = 1;

  StallLatch stall;
  std::mutex sizes_mutex;
  std::vector<std::size_t> batch_sizes;
  StreamPipeline<int, int> pipeline(
      opt,
      [&](std::vector<int>&& in) {
        {
          std::lock_guard<std::mutex> lock(sizes_mutex);
          batch_sizes.push_back(in.size());
        }
        for (const int v : in) {
          if (v == 0) stall.wait();
        }
        return std::move(in);
      },
      nullptr, [](std::uint64_t, int&&) {});
  const int n = 33;
  for (int i = 0; i < n; ++i) pipeline.submit(i);  // 32 queue behind the stall
  stall.release();
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  std::size_t max_batch = 0;
  for (const auto s : batch_sizes) max_batch = std::max(max_batch, s);
  // The backlog was 32 deep with one worker: adaptive sizing must have
  // reached the full batch_size at least once.
  EXPECT_EQ(max_batch, opt.batch_size);
}

// --- one scheduler: each worker's OpenMP team width --------------------------
// The core budget is the constructing thread's util::num_threads(); a worker
// runs each batch at budget / live workers (at least 1), or 1 when pinned.
// Without OpenMP every width is 1 and may_fork() is false, and every
// assertion below still holds.

/// What one transform call saw on its worker thread.
struct TeamSeen {
  int width = 0;
  bool may_fork = false;
  bool loop_on_caller = false;  ///< a parallel_for ran every index here
};

/// Run `n` items through a pipeline whose transform records TeamSeen per
/// batch.  `before_submit` runs after construction (e.g. to scale it).
std::vector<TeamSeen> observe_teams(
    const StreamOptions& opt, int n = 24,
    const std::function<void(IntPipeline&)>& before_submit = {},
    nc::codec::StreamStats* stats = nullptr) {
  std::mutex seen_mutex;
  std::vector<TeamSeen> seen;
  IntPipeline pipeline(
      opt,
      [&](std::vector<int>&& in) {
        TeamSeen s;
        s.width = nc::util::num_threads();
        s.may_fork = nc::util::may_fork();
        std::vector<std::thread::id> ran_on(256);
        nc::util::parallel_for(0, static_cast<std::int64_t>(ran_on.size()),
                               [&](std::int64_t i) {
                                 ran_on[static_cast<std::size_t>(i)] =
                                     std::this_thread::get_id();
                               });
        s.loop_on_caller =
            std::all_of(ran_on.begin(), ran_on.end(), [](std::thread::id id) {
              return id == std::this_thread::get_id();
            });
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen.push_back(s);
        return std::move(in);
      },
      nullptr, [](std::uint64_t, int&&) {});
  if (before_submit) before_submit(pipeline);
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto st = pipeline.finish();
  if (stats) *stats = st;
  EXPECT_FALSE(seen.empty());
  return seen;
}

TEST(StreamPipelineThreads, WorkersFillingTheBudgetNeverFork) {
  const int budget = nc::util::num_threads();
  StreamOptions opt;
  opt.n_workers = static_cast<std::size_t>(budget);
  for (const auto& s : observe_teams(opt)) {
    EXPECT_EQ(s.width, 1);
    EXPECT_FALSE(s.may_fork);
    EXPECT_TRUE(s.loop_on_caller);
  }
}

TEST(StreamPipelineThreads, SingleWorkerKeepsTheConstructingThreadsWidth) {
  const int budget = nc::util::num_threads();
  StreamOptions opt;
  opt.n_workers = 1;
  for (const auto& s : observe_teams(opt)) {
    EXPECT_EQ(s.width, budget);
    EXPECT_EQ(s.may_fork, budget > 1);
  }
}

TEST(StreamPipelineThreads, ElasticScaleDownWidensTheLiveWorker) {
  const int budget = nc::util::num_threads();
  StreamOptions opt;
  opt.elastic = true;
  opt.scale_interval_s = 0.0;  // manual scaling only
  opt.min_workers = 1;
  opt.max_workers = 4;
  opt.n_workers = 4;
  const auto seen = observe_teams(
      opt, 24, [](IntPipeline& p) { EXPECT_EQ(p.set_live_workers(1), 1u); });
  for (const auto& s : seen) {
    EXPECT_EQ(s.width, budget);
    EXPECT_EQ(s.may_fork, budget > 1);
  }
}

TEST(StreamPipelineThreads, SetNumThreadsOnTheConstructingThreadSetsTheBudget) {
  const int saved = nc::util::num_threads();
  nc::util::set_num_threads(1);
  StreamOptions opt;
  opt.n_workers = 2;
  const auto seen = observe_teams(opt);
  nc::util::set_num_threads(saved);
  for (const auto& s : seen) {
    EXPECT_EQ(s.width, 1);
    EXPECT_FALSE(s.may_fork);
    EXPECT_TRUE(s.loop_on_caller);
  }
}

TEST(StreamPipelineThreads, PinnedWorkersRunAtWidthOne) {
  const int budget = nc::util::num_threads();
  StreamOptions opt;
  opt.n_workers = 2;
  opt.pin_workers = true;
  nc::codec::StreamStats stats;
  const auto seen = observe_teams(opt, 24, {}, &stats);
  // Where affinity is unsupported (or NC_TOPOLOGY=off) the workers run
  // unpinned and share the budget like any other pool.
  const bool pinned = nc::util::system_topology().affinity_supported;
  EXPECT_EQ(stats.workers_pinned, pinned ? 2 : 0);
  const int expected = pinned ? 1 : std::max(1, budget / 2);
  for (const auto& s : seen) {
    EXPECT_EQ(s.width, expected);
    EXPECT_EQ(s.may_fork, expected > 1);
  }
}

}  // namespace
