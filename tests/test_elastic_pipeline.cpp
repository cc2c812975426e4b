/// \file test_elastic_pipeline.cpp
/// \brief Elastic worker pool inside StreamPipeline: manual and
///        controller-driven scaling.
///
/// The scaling *policy* is tested deterministically in test_autoscale.cpp;
/// this suite covers the impure half — the pipeline keeping every existing
/// contract (loss-free ordered output, spill replay, stats accounting)
/// while the live worker set changes underneath it.  The concurrency tests
/// drive scaling through the manual entry point (`scale_interval_s = 0`,
/// no controller thread) from a dedicated scaler thread, so they stress the
/// park/unpark machinery as hard as possible without depending on
/// controller timing; the controller tests at the bottom only assert
/// eventual reactions via spin_until.  Runs under TSan (tsan label) and
/// again with NC_TOPOLOGY=off (the ".notopo" ctest variant) to exercise
/// the no-affinity degradation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tests/stream_test_utils.hpp"
#include "util/serialize.hpp"
#include "util/topology.hpp"

namespace {

using nc::codec::ScaleEvent;
using nc::codec::StreamOptions;
using nc::testutil::IntPipeline;

/// Elastic manual-mode base: pool of 4, floor 1, no controller thread.
StreamOptions elastic_options() {
  StreamOptions opt;
  opt.elastic = true;
  opt.scale_interval_s = 0.0;  // manual: scaling only via set_live_workers
  opt.min_workers = 1;
  opt.max_workers = 4;
  opt.n_workers = 4;
  return opt;
}

IntPipeline::SpillCodec int_spill_codec() {
  return {[](const int& v) {
            return std::string(reinterpret_cast<const char*>(&v), sizeof(int));
          },
          [](const std::string& s) {
            if (s.size() != sizeof(int)) {
              throw nc::util::SerializeError("spilled int size mismatch");
            }
            int v = 0;
            std::memcpy(&v, s.data(), sizeof(int));
            return v;
          }};
}

std::string fresh_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "-" + info->name();
  std::replace(name.begin(), name.end(), '/', '-');
  return ::testing::TempDir() + "nc-elastic-" + name;
}

/// Cycles the live target through up/down transitions until stopped.  The
/// first transition happens before the constructor returns, so every test
/// sees at least one scale event however fast its items drain.
class ScalerThread {
 public:
  template <typename Pipeline>
  explicit ScalerThread(Pipeline& pipeline) {
    static constexpr std::size_t kTargets[] = {1, 4, 2, 3};
    pipeline.set_live_workers(kTargets[0]);
    thread_ = std::thread([this, &pipeline] {
      std::size_t i = 1;
      while (!stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        pipeline.set_live_workers(kTargets[i++ % 4]);
      }
    });
  }
  ~ScalerThread() { stop(); }
  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

class ElasticPipelineIntake : public nc::testutil::IntakeNamedTest {};

TEST_P(ElasticPipelineIntake, ManualScaleClampsAndCounts) {
  StreamOptions opt = elastic_options();
  std::mutex events_mutex;
  std::vector<ScaleEvent> events;
  opt.on_scale_event = [&](const ScaleEvent& e) {
    std::lock_guard<std::mutex> lock(events_mutex);
    events.push_back(e);
  };
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt, [](std::vector<int>&& in) { return std::move(in); }, nullptr,
      [&](std::uint64_t, int&&) { received.fetch_add(1); });
  EXPECT_EQ(pipeline.live_workers(), 4u);
  EXPECT_EQ(pipeline.set_live_workers(99), 4u) << "clamped to max_workers";
  EXPECT_EQ(pipeline.set_live_workers(0), 1u) << "clamped to min_workers";
  EXPECT_EQ(pipeline.live_workers(), 1u);
  EXPECT_EQ(pipeline.set_live_workers(3), 3u);
  for (int i = 0; i < 32; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, 32);
  EXPECT_EQ(stats.wedges_dropped, 0);
  // 4 -> 1 -> 3: one down, one up; extremes recorded.
  EXPECT_EQ(stats.scale_down_events, 1);
  EXPECT_EQ(stats.scale_up_events, 1);
  EXPECT_EQ(stats.workers_lwm, 1);
  EXPECT_EQ(stats.workers_hwm, 4);
  EXPECT_GE(stats.avg_live_workers, 1.0);
  EXPECT_LE(stats.avg_live_workers, 4.0);
  std::lock_guard<std::mutex> lock(events_mutex);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].from, 4u);
  EXPECT_EQ(events[0].to, 1u);
  EXPECT_STREQ(events[0].reason, "manual");
  EXPECT_EQ(events[1].from, 1u);
  EXPECT_EQ(events[1].to, 3u);
  EXPECT_GE(events[1].t_s, events[0].t_s);
}

TEST_P(ElasticPipelineIntake, StaticPoolIgnoresScaling) {
  StreamOptions opt;
  opt.n_workers = 2;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt, [](std::vector<int>&& in) { return std::move(in); }, nullptr,
      [&](std::uint64_t, int&&) { received.fetch_add(1); });
  // The static range is a point: every request clamps back to n_workers.
  EXPECT_EQ(pipeline.set_live_workers(1), 2u);
  EXPECT_EQ(pipeline.set_live_workers(8), 2u);
  EXPECT_EQ(pipeline.live_workers(), 2u);
  for (int i = 0; i < 16; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, 16);
  EXPECT_EQ(stats.scale_up_events, 0);
  EXPECT_EQ(stats.scale_down_events, 0);
  EXPECT_EQ(stats.workers_hwm, 2);
  EXPECT_EQ(stats.workers_lwm, 2);
  EXPECT_NEAR(stats.avg_live_workers, 2.0, 1e-9);
  EXPECT_EQ(stats.per_worker.size(), 2u) << "static pool size unchanged";
}

TEST_P(ElasticPipelineIntake, OrderedIdentitySurvivesConcurrentScaling) {
  // Ordered emission must stay a loss-free identity while a scaler thread
  // yo-yos the live set under load: a worker parks only between batches,
  // so no output is ever stranded ahead of the cursor.
  StreamOptions opt = elastic_options();
  opt.queue_capacity = 16;
  opt.batch_size = 4;
  opt.ordered = true;
  nc::testutil::SeqLog log;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { log.push(seq); });
  const int n = 512;
  {
    ScalerThread scaler(pipeline);
    for (int i = 0; i < n; ++i) pipeline.submit(i);
    // Scaler keeps running while finish() drains and joins: teardown must
    // tolerate concurrent set_live_workers too.
    const auto stats = pipeline.finish();
    EXPECT_EQ(stats.wedges_compressed, n);
    EXPECT_EQ(stats.wedges_dropped, 0);
    EXPECT_EQ(stats.wedges_failed, 0);
    EXPECT_GE(stats.scale_up_events + stats.scale_down_events, 1);
  }
  nc::testutil::expect_ordered_identity(log.snapshot(),
                                        static_cast<std::uint64_t>(n));
}

TEST_P(ElasticPipelineIntake, UnorderedLossFreeUnderConcurrentScaling) {
  StreamOptions opt = elastic_options();
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(10));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t, int&&) { received.fetch_add(1); });
  const int n = 512;
  {
    ScalerThread scaler(pipeline);
    for (int i = 0; i < n; ++i) pipeline.submit(i);
    const auto stats = pipeline.finish();
    EXPECT_EQ(stats.wedges_in, n);
    EXPECT_EQ(stats.wedges_compressed, n);
    EXPECT_EQ(stats.wedges_dropped, 0);
  }
  EXPECT_EQ(received.load(), n);
}

TEST_P(ElasticPipelineIntake, SpillReplaySurvivesConcurrentScaling) {
  // Spill + replay + ordered reorder + live set changing — every moving
  // part of the pipeline at once, with loss-freedom as the oracle.
  StreamOptions opt = elastic_options();
  opt.queue_capacity = 4;
  opt.batch_size = 2;
  opt.ordered = true;
  opt.spill_dir = fresh_dir();
  nc::testutil::SeqLog log;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { log.push(seq); },
      int_spill_codec());
  const int n = 128;
  {
    ScalerThread scaler(pipeline);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(pipeline.try_submit(i)) << "accepted or spilled, never lost";
    }
    const auto stats = pipeline.finish();
    EXPECT_EQ(stats.wedges_in, n);
    EXPECT_EQ(stats.wedges_compressed, n);
    EXPECT_EQ(stats.wedges_dropped, 0);
    EXPECT_EQ(stats.wedges_replayed, stats.wedges_spilled);
  }
  nc::testutil::expect_ordered_identity(log.snapshot(),
                                        static_cast<std::uint64_t>(n));
}

NC_INSTANTIATE_SHARDED_NAMES(ElasticPipelineIntake);

// --- controller thread (eventual assertions via spin_until) ----------------

TEST(ElasticController, ScalesUpUnderSustainedBacklog) {
  StreamOptions opt;
  opt.elastic = true;
  opt.min_workers = 1;
  opt.max_workers = 4;
  opt.n_workers = 1;
  opt.queue_capacity = 8;
  opt.batch_size = 1;
  opt.scale_interval_s = 0.001;
  opt.scale_window = 2;
  opt.scale_cooldown = 1;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t, int&&) { received.fetch_add(1); });
  const int n = 400;
  for (int i = 0; i < n; ++i) pipeline.submit(i);  // keeps the intake full
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_GE(stats.scale_up_events, 1) << "backlog never triggered scale-up";
  EXPECT_GE(stats.workers_hwm, 2);
  EXPECT_EQ(stats.workers_lwm, 1);
}

TEST(ElasticController, ScalesDownWhenQuiet) {
  StreamOptions opt;
  opt.elastic = true;
  opt.min_workers = 1;
  opt.max_workers = 4;
  opt.n_workers = 4;  // born at the ceiling, nothing to do
  opt.scale_interval_s = 0.001;
  opt.scale_window = 2;
  opt.scale_cooldown = 0;
  IntPipeline pipeline(
      opt, [](std::vector<int>&& in) { return std::move(in); }, nullptr,
      [](std::uint64_t, int&&) {});
  EXPECT_TRUE(nc::testutil::spin_until(
      [&] { return pipeline.live_workers() <= 2; }))
      << "idle pool never scaled down";
  const auto stats = pipeline.finish();
  EXPECT_GE(stats.scale_down_events, 1);
  EXPECT_LE(stats.workers_lwm, 2);
}

TEST(ElasticController, SpillJumpsStraightToCeiling) {
  // Window and cooldown far too long for the gradual path inside the test
  // budget: only the spill emergency jump can raise the target quickly.
  StreamOptions opt;
  opt.elastic = true;
  opt.min_workers = 1;
  opt.max_workers = 4;
  opt.n_workers = 1;
  opt.queue_capacity = 4;
  opt.batch_size = 2;
  opt.scale_interval_s = 0.001;
  opt.scale_window = 1000;
  opt.scale_cooldown = 1000;
  opt.spill_dir = fresh_dir();
  std::mutex events_mutex;
  std::vector<std::string> reasons;
  opt.on_scale_event = [&](const ScaleEvent& e) {
    std::lock_guard<std::mutex> lock(events_mutex);
    reasons.push_back(e.reason);
  };
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t, int&&) { received.fetch_add(1); },
      int_spill_codec());
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(pipeline.try_submit(i));  // overflow lands on disk
  }
  EXPECT_TRUE(nc::testutil::spin_until(
      [&] { return pipeline.live_workers() == 4; }))
      << "spill never forced the ceiling";
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_GT(stats.wedges_spilled, 0) << "test never exercised the spill path";
  std::lock_guard<std::mutex> lock(events_mutex);
  EXPECT_NE(std::find(reasons.begin(), reasons.end(), "spill"), reasons.end())
      << "no scale event carried the spill reason";
}

// --- pinning / topology degradation ----------------------------------------

TEST(ElasticPinning, PinnedCountMatchesTopologySupport) {
  StreamOptions opt;
  opt.n_workers = 2;
  opt.pin_workers = true;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt, [](std::vector<int>&& in) { return std::move(in); }, nullptr,
      [&](std::uint64_t, int&&) { received.fetch_add(1); });
  for (int i = 0; i < 16; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, 16);
  const auto& topo = nc::util::system_topology();
  if (topo.affinity_supported) {
    EXPECT_EQ(stats.workers_pinned, 2);
    EXPECT_EQ(pipeline.placement().size(), 2u);
  } else {
    // Graceful no-op (non-Linux, or the NC_TOPOLOGY=off ctest variant):
    // nothing pinned, placement empty, pipeline fully functional.
    EXPECT_EQ(stats.workers_pinned, 0);
    EXPECT_TRUE(pipeline.placement().empty());
  }
}

}  // namespace
