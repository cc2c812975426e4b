/// \file test_service_soak.cpp
/// \brief Slow-labeled overload soak for the compression service: a firehose
///        driven well past the shared pool's capacity with a degradation
///        ladder and a spill tier configured.
///
/// What the soak must show (the PR's acceptance demo, in test form):
///  * the firehose session degrades down its ladder — and if it ever sheds,
///    the ladder was exhausted first (degradations strictly before sheds);
///  * a polite session riding the same pool finishes with zero shed;
///  * on-disk spill stays under spill_max_bytes throughout;
///  * per-session ordered emission survives spill replay and codec hops.
///
/// Unlike test_service.cpp this runs the REAL admission thread
/// (admission_interval_s > 0) and real time-based overload, so it lives in
/// the slow suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bcae/model.hpp"
#include "codec/service.hpp"
#include "codec/wedge_codec.hpp"
#include "tests/stream_test_utils.hpp"

namespace {

namespace fs = std::filesystem;

using nc::codec::CompressionService;
using nc::codec::ServiceOptions;
using nc::codec::SessionOptions;
using nc::codec::SubmitResult;
using nc::codec::WedgeCodec;
using nc::codec::WedgeEnvelope;
using nc::core::Tensor;
using nc::testutil::raw_wedge;

const WedgeCodec& zfp_codec() {
  static nc::bcae::BcaeModel model = nc::bcae::make_bcae_ht(81);
  static const std::unique_ptr<WedgeCodec> codec =
      nc::codec::make_wedge_codec("zfp", model);
  return *codec;
}

/// Rung-0 codec: real zfp output, but throttled hard enough that the
/// firehose outruns the pool by >2x and admission has to act.
class ThrottledCodec : public WedgeCodec {
 public:
  explicit ThrottledCodec(const WedgeCodec& inner) : inner_(inner) {}
  std::uint8_t codec_id() const override { return inner_.codec_id(); }
  std::string name() const override { return "throttled-" + inner_.name(); }
  std::vector<WedgeEnvelope> compress_batch(
      const std::vector<Tensor>& wedges) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return inner_.compress_batch(wedges);
  }
  std::vector<Tensor> decompress_batch(
      const std::vector<WedgeEnvelope>& envelopes) const override {
    return inner_.decompress_batch(envelopes);
  }

 private:
  const WedgeCodec& inner_;
};

TEST(ServiceSoak, OverloadDegradesBeforeSheddingAndBoundsSpill) {
  const fs::path dir = fs::temp_directory_path() / "nc_service_soak";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ThrottledCodec throttled(zfp_codec());
  ServiceOptions opt;
  opt.pipeline.n_workers = 2;
  opt.pipeline.queue_capacity = 4;
  opt.pipeline.batch_size = 2;
  opt.pipeline.spill_dir = dir.string();
  // Generous bound: a refused spill would settle as a `failed` wedge (that
  // path is Service.RefusedSpillReachesItsSession's), and this soak expects
  // failed == 0 — it asserts only that the hwm honors the bound.
  opt.pipeline.spill_max_bytes = std::size_t{256} << 20;
  // Each spilled submit first waits 1 ms for intake space: this throttles
  // the scheduler's drain rate below the firehose's submit rate, so the
  // firehose staging queue deterministically backs up while spill evidence
  // accumulates — exactly the state the emergency degrade path watches.
  opt.pipeline.spill_deadline_s = 0.001;
  opt.admission_interval_s = 0.002;  // real admission thread
  CompressionService service(opt);

  std::mutex fire_mutex;
  std::vector<std::uint64_t> fire_seqs;
  SessionOptions fire_opt;
  fire_opt.ladder = {&throttled, &zfp_codec()};
  fire_opt.queue_capacity = 16;
  fire_opt.sink = [&](std::uint64_t seq, WedgeEnvelope&&) {
    std::lock_guard<std::mutex> lock(fire_mutex);
    fire_seqs.push_back(seq);
  };
  const auto fire = service.open_session(std::move(fire_opt));

  std::mutex polite_mutex;
  std::vector<std::uint64_t> polite_seqs;
  SessionOptions polite_opt;
  polite_opt.ladder = {&zfp_codec()};
  polite_opt.queue_capacity = 16;
  polite_opt.sink = [&](std::uint64_t seq, WedgeEnvelope&&) {
    std::lock_guard<std::mutex> lock(polite_mutex);
    polite_seqs.push_back(seq);
  };
  const auto polite = service.open_session(std::move(polite_opt));

  // ~2s of firehose: far more than the throttled rung-0 pool can absorb.
  const int kFireWedges = 1200;
  const int kPoliteWedges = 100;
  std::int64_t fire_offered = 0;
  std::thread firehose([&] {
    for (int i = 0; i < kFireWedges; ++i) {
      const auto r =
          service.try_submit(fire, raw_wedge(static_cast<std::size_t>(i)));
      if (r == SubmitResult::kAccepted || r == SubmitResult::kShed) {
        ++fire_offered;
      }
      if (i % 8 == 0) std::this_thread::yield();
    }
  });
  std::thread polite_client([&] {
    for (int i = 0; i < kPoliteWedges; ++i) {
      ASSERT_EQ(service.submit(polite, raw_wedge(static_cast<std::size_t>(i))),
                SubmitResult::kAccepted);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  firehose.join();
  polite_client.join();

  const auto fire_stats = service.close_session(fire);
  const auto polite_stats = service.close_session(polite);
  const auto totals = service.finish();
  fs::remove_all(dir);

  // The polite session never pays for the firehose.
  EXPECT_EQ(polite_stats.shed, 0);
  EXPECT_EQ(polite_stats.compressed, kPoliteWedges);
  {
    std::lock_guard<std::mutex> lock(polite_mutex);
    nc::testutil::expect_ordered_identity(
        polite_seqs, static_cast<std::uint64_t>(kPoliteWedges));
  }

  // The firehose was made to degrade; any shed implies the ladder was
  // already exhausted (rung pinned at the bottom), never a skipped rung.
  EXPECT_GE(fire_stats.degradations, 1)
      << "2x overload for ~2s must trip the ladder";
  if (fire_stats.shed > 0) {
    EXPECT_EQ(fire_stats.rung, 1u) << "shed with a rung still available";
    EXPECT_GE(fire_stats.degradations, 1);
  }
  EXPECT_EQ(fire_stats.submitted, fire_offered);
  EXPECT_EQ(fire_stats.compressed + fire_stats.shed + fire_stats.failed,
            fire_stats.submitted);
  EXPECT_EQ(fire_stats.failed, 0);
  {
    std::lock_guard<std::mutex> lock(fire_mutex);
    EXPECT_EQ(static_cast<std::int64_t>(fire_seqs.size()),
              fire_stats.compressed);
    EXPECT_TRUE(std::is_sorted(fire_seqs.begin(), fire_seqs.end()));
    EXPECT_EQ(std::adjacent_find(fire_seqs.begin(), fire_seqs.end()),
              fire_seqs.end())
        << "duplicate emission";
  }

  // Spill stayed bounded and (with a throttled pool and a 4-deep intake)
  // was actually exercised, round-tripping service wedges through the
  // raw-wedge spill record and the route table.
  EXPECT_GT(totals.pipeline.wedges_spilled, 0)
      << "soak never reached the spill tier; overload too weak";
  EXPECT_LE(totals.pipeline.spill_bytes_hwm,
            static_cast<std::int64_t>(opt.pipeline.spill_max_bytes));
  EXPECT_EQ(totals.wedges_shed, fire_stats.shed);
  EXPECT_GE(totals.degradations, 1);
}

}  // namespace
