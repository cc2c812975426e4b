/// \file stream_test_utils.hpp
/// \brief Shared scaffolding for the streaming suites (test_stream_pipeline,
///        test_stream_decompress, test_sharded_intake, test_spill).
///
/// Several suites need a worker stalled mid-transform (to pin down steal
/// fairness, adaptive batching) and sinks that record what arrived.  That machinery was copy-pasted three times before this header
/// existed — keep it here so a fourth suite can't drift.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "codec/bcae_codec.hpp"
#include "codec/stream_pipeline.hpp"
#include "codec/wedge_codec.hpp"
#include "tpc/dataset.hpp"

namespace nc::testutil {

/// The synthetic pipeline most generic suites instantiate.
using IntPipeline = codec::StreamPipeline<int, int>;

/// The stream suites once ran once per intake layer, so their cases are
/// named `BothIntakes/<Suite>.<Case>/sharded` (and `sharded_<codec>` in the
/// codec arena).  ShardedQueue is the only intake now; those suites keep
/// this one-value parameter so their names, and the results filed under
/// them, carry over unchanged.  The value is the retired
/// `IntakeMode::kSharded`, so the printed parameter is unchanged too.
enum class IntakeName : std::int32_t { kSharded = 2 };

/// Base fixture for the suites named by IntakeName.
class IntakeNamedTest : public ::testing::TestWithParam<IntakeName> {};

/// Instantiates `suite` as `BothIntakes/<suite>.<Case>/sharded`.
#define NC_INSTANTIATE_SHARDED_NAMES(suite)                                \
  INSTANTIATE_TEST_SUITE_P(                                                \
      BothIntakes, suite,                                                  \
      ::testing::Values(::nc::testutil::IntakeName::kSharded),             \
      [](const ::testing::TestParamInfo<::nc::testutil::IntakeName>&) {    \
        return std::string("sharded");                                     \
      })

/// One-shot gate a transform blocks on to stall a worker mid-batch.
class StallLatch {
 public:
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return released_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

/// Poll `pred` in 5 ms steps until it holds or `max_spins` expire; returns
/// the final pred() so callers can EXPECT_TRUE it.
inline bool spin_until(const std::function<bool()>& pred, int max_spins = 1000) {
  for (int i = 0; i < max_spins && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Thread-safe sequence-number recorder for sinks.  Unordered sinks push
/// concurrently; ordered users may read after finish() without the lock,
/// but snapshot() is always safe.
class SeqLog {
 public:
  void push(std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mutex_);
    seqs_.push_back(seq);
  }
  std::vector<std::uint64_t> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seqs_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seqs_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> seqs_;
};

/// Expect exactly the identity emission 0..n-1 (the ordered-mode contract).
inline void expect_ordered_identity(const std::vector<std::uint64_t>& seqs,
                                    std::uint64_t n) {
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], i) << "position " << i;
  }
}

// --- codec-facing fixtures (tiny dataset, shared by every stream suite
// --- that pushes real wedges) ----------------------------------------------

inline const tpc::WedgeDataset& tiny_dataset() {
  static const tpc::WedgeDataset ds = [] {
    tpc::DatasetConfig cfg;
    cfg.n_events = 2;
    cfg.geometry.scale = 0.125;
    cfg.train_fraction = 0.5;
    return tpc::WedgeDataset::generate(cfg);
  }();
  return ds;
}

/// One of the 8 tiny training wedges, clipped to the valid horizontal span.
inline core::Tensor raw_wedge(std::size_t i) {
  const auto& ds = tiny_dataset();
  return tpc::clip_horizontal(ds.train().at(i % 8), ds.valid_horiz());
}

/// Compress n wedges directly (no stream) as round-trip input.
inline std::vector<codec::CompressedWedge> compressed_wedges(
    const codec::BcaeCodec& codec, int n) {
  std::vector<codec::CompressedWedge> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(codec.compress(raw_wedge(static_cast<std::size_t>(i))));
  }
  return out;
}

/// Envelope twin of compressed_wedges: compress n wedges directly through
/// any WedgeCodec (no stream) as stream round-trip input.
inline std::vector<codec::WedgeEnvelope> enveloped_wedges(
    const codec::WedgeCodec& codec, int n) {
  std::vector<codec::WedgeEnvelope> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(codec.compress(raw_wedge(static_cast<std::size_t>(i))));
  }
  return out;
}

inline void expect_bit_identical(const core::Tensor& a, const core::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "voxel " << i;
  }
}

}  // namespace nc::testutil
