/// BCAE codec: round-trip format, compression-ratio accounting, streaming
/// pipeline semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <sstream>
#include <thread>

#include "codec/bcae_codec.hpp"
#include "codec/stream.hpp"
#include "tests/reference.hpp"
#include "tests/stream_test_utils.hpp"
#include "tpc/dataset.hpp"

namespace {

using nc::codec::BcaeCodec;
using nc::codec::BcaeWedgeCodec;
using nc::codec::CompressedWedge;
using nc::codec::WedgeEnvelope;
using nc::core::Mode;
using nc::core::Tensor;

const nc::tpc::WedgeDataset& tiny_dataset() {
  static const nc::tpc::WedgeDataset ds = [] {
    nc::tpc::DatasetConfig cfg;
    cfg.n_events = 2;
    cfg.geometry.scale = 0.125;
    cfg.train_fraction = 0.5;
    return nc::tpc::WedgeDataset::generate(cfg);
  }();
  return ds;
}

/// Unpadded wedge from the dataset pool (the padded store clipped back).
Tensor raw_wedge(std::size_t i) {
  const auto& ds = tiny_dataset();
  return nc::tpc::clip_horizontal(ds.train().at(i), ds.valid_horiz());
}

/// One worker draining a bounded intake in batches of `batch_size`.
nc::codec::StreamOptions one_worker(std::size_t queue_capacity,
                                    std::size_t batch_size) {
  nc::codec::StreamOptions opt;
  opt.queue_capacity = queue_capacity;
  opt.batch_size = batch_size;
  return opt;
}

TEST(BcaeCodec, CompressProducesDeclaredRatio) {
  auto model = nc::bcae::make_bcae_2d(nc::bcae::Bcae2dConfig{}, 31);
  BcaeCodec codec(model, Mode::kEval);
  const auto cw = codec.compress(raw_wedge(0));
  // Scaled wedge (16, 32, 31) -> padded (16, 32, 32): code (32, 4, 4).
  EXPECT_EQ(cw.code_shape, (nc::core::Shape{32, 4, 4}));
  EXPECT_EQ(cw.payload_bytes(), 512 * 2);
  EXPECT_NEAR(cw.compression_ratio(), 16.0 * 32 * 31 / 512.0, 1e-9);
}

TEST(BcaeCodec, RoundTripShapeAndMaskSemantics) {
  auto model = nc::bcae::make_bcae_ht(33);
  BcaeCodec codec(model, Mode::kEval);
  const Tensor original = raw_wedge(1);
  const auto cw = codec.compress(original);
  const Tensor recon = codec.decompress(cw);
  ASSERT_EQ(recon.shape(), original.shape());
  // BCAE invariant: every reconstructed voxel is 0 or above 6 (§2.2).
  for (std::int64_t i = 0; i < recon.numel(); ++i) {
    EXPECT_TRUE(recon[i] == 0.f || recon[i] >= 6.f) << recon[i];
  }
}

TEST(BcaeCodec, SerializeDeserializeRoundTrip) {
  auto model = nc::bcae::make_bcae_ht(35);
  BcaeCodec codec(model, Mode::kEval);
  const auto cw = codec.compress(raw_wedge(2));

  std::stringstream buffer;
  cw.serialize(buffer);
  const auto back = CompressedWedge::deserialize(buffer);
  EXPECT_EQ(back.wedge_shape, cw.wedge_shape);
  EXPECT_EQ(back.code_shape, cw.code_shape);
  ASSERT_EQ(back.code.size(), cw.code.size());
  for (std::size_t i = 0; i < cw.code.size(); ++i) {
    EXPECT_EQ(back.code[i].bits(), cw.code[i].bits());
  }
}

TEST(BcaeCodec, BatchMatchesSingleCompression) {
  auto model = nc::bcae::make_bcae_ht(37);
  BcaeCodec codec(model, Mode::kEval);
  const auto singles = {codec.compress(raw_wedge(0)), codec.compress(raw_wedge(1))};
  const auto batch = codec.compress_batch({raw_wedge(0), raw_wedge(1)});
  ASSERT_EQ(batch.size(), 2u);
  std::size_t wi = 0;
  for (const auto& s : singles) {
    ASSERT_EQ(batch[wi].code.size(), s.code.size());
    for (std::size_t i = 0; i < s.code.size(); ++i) {
      EXPECT_NEAR(static_cast<float>(batch[wi].code[i]),
                  static_cast<float>(s.code[i]), 1e-4);
    }
    ++wi;
  }
}

TEST(BcaeCodec, HalfAndFullModeCodesAgree) {
  auto model = nc::bcae::make_bcae_ht(39);
  BcaeCodec full(model, Mode::kEval);
  BcaeCodec half(model, Mode::kEvalHalf);
  const Tensor w = raw_wedge(3);
  const auto cf = full.compress(w);
  const auto ch = half.compress(w);
  double max_diff = 0, scale = 0;
  for (std::size_t i = 0; i < cf.code.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(static_cast<float>(cf.code[i])) -
                                 static_cast<double>(static_cast<float>(ch.code[i]))));
    scale = std::max(scale, std::abs(static_cast<double>(static_cast<float>(cf.code[i]))));
  }
  EXPECT_LT(max_diff, 0.02 * (scale + 1.0));
}

TEST(BcaeCodec, HalfModeDecompressStaysFiniteOnUntrainedWeights) {
  // Untrained random weights drive the decoder's intermediate activations
  // past the fp16 range; the saturating activation cast must clamp them so
  // every reconstructed voxel is finite (the ROADMAP fp16-overflow item).
  auto model = nc::bcae::make_bcae_ht(83);
  BcaeCodec codec(model, Mode::kEvalHalf);
  const auto cw = codec.compress(raw_wedge(0));
  const Tensor recon = codec.decompress(cw);
  for (std::int64_t i = 0; i < recon.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(recon[i])) << "voxel " << i << " = " << recon[i];
  }
}

TEST(BcaeCodec, RejectsBadInputs) {
  auto model = nc::bcae::make_bcae_ht(41);
  EXPECT_THROW(BcaeCodec(model, Mode::kTrain), std::invalid_argument);
  BcaeCodec codec(model, Mode::kEval);
  EXPECT_THROW(codec.compress(Tensor({4, 4})), std::invalid_argument);
}

TEST(StreamCompressor, CompressesEverySubmittedWedge) {
  auto model = nc::bcae::make_bcae_ht(43);
  BcaeWedgeCodec codec(model, Mode::kEval);
  std::atomic<int> received{0};
  std::atomic<std::int64_t> bytes{0};
  nc::codec::StreamCompressor stream(
      codec, one_worker(/*queue_capacity=*/64, /*batch_size=*/4),
      [&](WedgeEnvelope&& cw) {
        received.fetch_add(1);
        bytes.fetch_add(cw.payload_bytes());
      });
  const int n = 12;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i % 8)));
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(stats.payload_bytes, bytes.load());
  EXPECT_GT(stats.throughput_wps(), 0.0);
}

TEST(StreamCompressor, CountsDropsUnderBackpressure) {
  auto model = nc::bcae::make_bcae_ht(45);
  BcaeWedgeCodec codec(model, Mode::kEval);
  // Tiny queue + a sink that can't be outrun: some try_submits must fail.
  nc::codec::StreamCompressor stream(
      codec, one_worker(/*queue_capacity=*/1, /*batch_size=*/1),
      [](WedgeEnvelope&&) {});
  int accepted = 0;
  const int offered = 200;
  for (int i = 0; i < offered; ++i) {
    accepted += stream.try_submit(raw_wedge(static_cast<std::size_t>(i % 8))) ? 1 : 0;
  }
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, accepted);
  EXPECT_EQ(stats.wedges_in + stats.wedges_dropped, offered);
  EXPECT_EQ(stats.wedges_compressed, accepted);
}

TEST(StreamCompressor, BlockingSubmitRidesOutTinyQueue) {
  auto model = nc::bcae::make_bcae_ht(63);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt;
  opt.queue_capacity = 1;  // every submit after the first must wait for space
  opt.batch_size = 1;
  opt.n_workers = 1;
  std::atomic<int> received{0};
  nc::codec::StreamCompressor stream(
      codec, opt, [&](WedgeEnvelope&&) { received.fetch_add(1); });
  const int n = 6;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i)));
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(received.load(), n);
}

/// Multi-worker compressor contracts.
class StreamCompressorIntake : public nc::testutil::IntakeNamedTest {};

NC_INSTANTIATE_SHARDED_NAMES(StreamCompressorIntake);

TEST_P(StreamCompressorIntake, MultiWorkerCompressesEverySubmittedWedge) {
  auto model = nc::bcae::make_bcae_ht(49);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt;
  opt.queue_capacity = 16;
  opt.batch_size = 2;
  opt.n_workers = 3;
  std::atomic<int> received{0};
  std::atomic<std::int64_t> bytes{0};
  nc::codec::StreamCompressor stream(codec, opt, [&](WedgeEnvelope&& cw) {
    received.fetch_add(1);
    bytes.fetch_add(cw.payload_bytes());
  });
  const int n = 18;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i % 8)));
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(stats.wedges_failed, 0);
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(stats.payload_bytes, bytes.load());
  // Per-worker breakdown must reconcile with the aggregate totals.
  ASSERT_EQ(stats.per_worker.size(), 3u);
  std::int64_t per_worker_sum = 0;
  double cpu_sum = 0.0;
  for (const auto& ws : stats.per_worker) {
    per_worker_sum += ws.wedges_compressed;
    cpu_sum += ws.active_s;
  }
  EXPECT_EQ(per_worker_sum, stats.wedges_compressed);
  EXPECT_DOUBLE_EQ(cpu_sum, stats.cpu_s);
  // elapsed_s is the busy-interval union: positive, and bounded by the
  // summed thread-time plus per-batch bookkeeping slack (the busy window
  // brackets the timed region, so the union picks up a few us per batch).
  EXPECT_GT(stats.elapsed_s, 0.0);
  EXPECT_LE(stats.elapsed_s, stats.cpu_s + 0.05);
  EXPECT_GT(stats.throughput_wps(), 0.0);
}

TEST_P(StreamCompressorIntake, MultiWorkerDropAccountingUnderBackpressure) {
  auto model = nc::bcae::make_bcae_ht(51);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt;
  opt.queue_capacity = 1;
  opt.batch_size = 1;
  opt.n_workers = 2;
  std::atomic<int> received{0};
  nc::codec::StreamCompressor stream(
      codec, opt, [&](WedgeEnvelope&&) { received.fetch_add(1); });
  int accepted = 0;
  const int offered = 120;
  for (int i = 0; i < offered; ++i) {
    accepted += stream.try_submit(raw_wedge(static_cast<std::size_t>(i % 8))) ? 1 : 0;
  }
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, accepted);
  EXPECT_EQ(stats.wedges_in + stats.wedges_dropped, offered);
  EXPECT_EQ(stats.wedges_compressed, accepted);
  EXPECT_EQ(received.load(), accepted);
}

TEST_P(StreamCompressorIntake, OrderedSinkEmitsInSubmissionOrder) {
  auto model = nc::bcae::make_bcae_ht(53);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt;
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 4;
  opt.ordered = true;
  // Ordered mode serializes sink invocations, so no lock is needed here.
  std::vector<std::uint64_t> seqs;
  nc::codec::StreamCompressor stream(
      codec, opt,
      [&](std::uint64_t seq, WedgeEnvelope&&) { seqs.push_back(seq); });
  const int n = 16;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i % 8)));
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST_P(StreamCompressorIntake, UnorderedSeqsArePermutationOfSubmissions) {
  auto model = nc::bcae::make_bcae_ht(55);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt;
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 3;
  std::mutex seq_mutex;  // unordered sink runs concurrently
  std::vector<std::uint64_t> seqs;
  nc::codec::StreamCompressor stream(
      codec, opt, [&](std::uint64_t seq, WedgeEnvelope&&) {
        std::lock_guard<std::mutex> lock(seq_mutex);
        seqs.push_back(seq);
      });
  const int n = 12;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i % 8)));
  (void)stream.finish();
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n));
  std::sort(seqs.begin(), seqs.end());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST_P(StreamCompressorIntake, ThrowingSinkDoesNotKillOrderedPipeline) {
  auto model = nc::bcae::make_bcae_ht(65);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt;
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 2;
  opt.ordered = true;
  std::vector<std::uint64_t> seqs;
  nc::codec::StreamCompressor stream(
      codec, opt, [&](std::uint64_t seq, WedgeEnvelope&&) {
        if (seq == 1) throw std::runtime_error("storage refused wedge");
        seqs.push_back(seq);
      });
  const int n = 8;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i)));
  const auto stats = stream.finish();
  // Compression succeeded for every wedge; only delivery of seq 1 was lost.
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_failed, 0);
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n - 1));
  std::uint64_t expect = 0;
  for (const auto seq : seqs) {
    if (expect == 1) ++expect;  // the refused wedge
    EXPECT_EQ(seq, expect++);
  }
}

TEST_P(StreamCompressorIntake, ConcurrentProducersWithConcurrentFinish) {
  auto model = nc::bcae::make_bcae_ht(57);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt;
  opt.queue_capacity = 4;
  opt.batch_size = 2;
  opt.n_workers = 2;
  std::atomic<int> received{0};
  nc::codec::StreamCompressor stream(
      codec, opt, [&](WedgeEnvelope&&) { received.fetch_add(1); });
  constexpr int kProducers = 3, kPerProducer = 40;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        (void)stream.try_submit(raw_wedge(static_cast<std::size_t>(i % 8)));
      }
    });
  }
  // Close the intake while producers are (possibly) still submitting: late
  // submissions must land in the drop count, not crash or hang.
  const auto mid = stream.finish();
  for (auto& t : producers) t.join();
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in + stats.wedges_dropped, kProducers * kPerProducer);
  EXPECT_EQ(stats.wedges_compressed, stats.wedges_in);
  EXPECT_EQ(received.load(), stats.wedges_compressed);
  // Compression totals are frozen at the first finish.
  EXPECT_EQ(mid.wedges_compressed, stats.wedges_compressed);
}

TEST(StreamCompressor, DoubleFinishIsIdempotent) {
  auto model = nc::bcae::make_bcae_ht(59);
  BcaeWedgeCodec codec(model, Mode::kEval);
  std::atomic<int> received{0};
  {
    nc::codec::StreamCompressor stream(
        codec, one_worker(/*queue_capacity=*/8, /*batch_size=*/2),
        [&](WedgeEnvelope&&) { received.fetch_add(1); });
    for (int i = 0; i < 5; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i)));
    const auto first = stream.finish();
    const auto second = stream.finish();
    EXPECT_EQ(first.wedges_compressed, 5);
    EXPECT_EQ(second.wedges_compressed, 5);
    EXPECT_DOUBLE_EQ(second.elapsed_s, first.elapsed_s);
    // Destructor runs after the explicit finishes: must be a safe no-op.
  }
  EXPECT_EQ(received.load(), 5);
}

TEST(StreamCompressor, FinishFromAnotherThreadThenDestroy) {
  auto model = nc::bcae::make_bcae_ht(61);
  BcaeWedgeCodec codec(model, Mode::kEval);
  std::atomic<int> received{0};
  {
    nc::codec::StreamCompressor stream(
        codec, one_worker(/*queue_capacity=*/8, /*batch_size=*/2),
        [&](WedgeEnvelope&&) { received.fetch_add(1); });
    for (int i = 0; i < 4; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i)));
    std::thread finisher([&] { (void)stream.finish(); });
    finisher.join();
  }
  EXPECT_EQ(received.load(), 4);
}

TEST(StreamCompressor, SubmitAfterFinishCountsAsDropped) {
  auto model = nc::bcae::make_bcae_ht(47);
  BcaeWedgeCodec codec(model, Mode::kEval);
  std::atomic<int> received{0};
  nc::codec::StreamCompressor stream(
      codec, one_worker(/*queue_capacity=*/8, /*batch_size=*/2),
      [&](WedgeEnvelope&&) { received.fetch_add(1); });
  const int n = 3;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i)));
  (void)stream.finish();
  // The intake is closed: both submit paths must account the loss.
  stream.submit(raw_wedge(0));
  EXPECT_FALSE(stream.try_submit(raw_wedge(1)));
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 2);
  EXPECT_EQ(received.load(), n);
}

}  // namespace
