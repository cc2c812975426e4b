/// Post-training optimization (§4 future work): int8 quantization and
/// magnitude pruning.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "bcae/evaluator.hpp"
#include "bcae/model.hpp"
#include "core/conv.hpp"
#include "core/ops.hpp"
#include "core/quantize.hpp"
#include "tests/reference.hpp"
#include "tpc/dataset.hpp"

namespace {

using nc::core::Mode;
using nc::core::Tensor;

TEST(Quantize, RowQuantizationBoundsError) {
  const Tensor w = nc::testref::random_tensor({8, 64}, 11);
  const auto q = nc::core::quantize_rows(w.data(), 8, 64);
  for (std::int64_t r = 0; r < 8; ++r) {
    const float scale = q.scales[static_cast<std::size_t>(r)];
    for (std::int64_t k = 0; k < 64; ++k) {
      const float back = static_cast<float>(q.values[r * 64 + k]) * scale;
      // Symmetric int8: error <= scale / 2.
      EXPECT_LE(std::abs(back - w[r * 64 + k]), scale * 0.5f + 1e-7f);
    }
  }
}

TEST(Quantize, TensorQuantizationRoundTrip) {
  const Tensor x = nc::testref::random_tensor({300}, 13);
  std::vector<std::int8_t> q(300);
  const float scale = nc::core::quantize_tensor(x.data(), 300, q.data());
  for (std::int64_t i = 0; i < 300; ++i) {
    EXPECT_LE(std::abs(static_cast<float>(q[i]) * scale - x[i]),
              scale * 0.5f + 1e-7f);
  }
}

TEST(Quantize, ZeroTensorQuantizesToZeros) {
  const Tensor x({16});
  std::vector<std::int8_t> q(16);
  const float scale = nc::core::quantize_tensor(x.data(), 16, q.data());
  EXPECT_GT(scale, 0.f);
  for (auto v : q) EXPECT_EQ(v, 0);
}

TEST(Quantize, QgemmMatchesFloatGemmWithinQuantError) {
  const std::int64_t m = 6, n = 50, k = 40;
  const Tensor a = nc::testref::random_tensor({m, k}, 17);
  const Tensor b = nc::testref::random_tensor({k, n}, 19);
  Tensor c_ref({m, n});
  nc::testref::naive_gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n,
                          0.f, c_ref.data(), n);

  const auto qa = nc::core::quantize_rows(a.data(), m, k);
  std::vector<std::int8_t> qb(static_cast<std::size_t>(k * n));
  const float b_scale = nc::core::quantize_tensor(b.data(), k * n, qb.data());
  Tensor c_q({m, n});
  std::vector<std::int64_t> b_rows(static_cast<std::size_t>(k));
  for (std::int64_t kk = 0; kk < k; ++kk) {
    b_rows[static_cast<std::size_t>(kk)] = kk * n;
  }
  nc::core::qgemm(m, n, k, qa.values.data(), qa.scales.data(), qb.data(),
                  b_rows.data(), b_scale, c_q.data(), n);

  // Per-element quantization noise ~ (|a| + |b|) / 254 accumulated over k.
  EXPECT_LT(nc::testref::max_abs_diff(c_ref, c_q), 0.02 * k);
}

TEST(Quantize, Conv2dInt8ForwardCloseToFloat) {
  nc::util::Rng rng(21);
  nc::core::Conv2d conv(4, 8, {3, 3}, {1, 1}, {1, 1}, true, rng);
  const Tensor x = nc::testref::random_tensor({2, 4, 10, 12}, 23);
  const Tensor full = conv.forward(x, Mode::kEval);
  const Tensor int8 = conv.forward(x, Mode::kEvalInt8);
  ASSERT_EQ(int8.shape(), full.shape());
  const float scale = std::max(std::abs(nc::core::max_value(full)),
                               std::abs(nc::core::min_value(full)));
  EXPECT_LT(nc::testref::max_abs_diff(full, int8),
            0.05 * (static_cast<double>(scale) + 1.0));
}

TEST(Quantize, EncoderInt8CodeCloseToFloat) {
  nc::tpc::DatasetConfig cfg;
  cfg.n_events = 2;
  cfg.geometry.scale = 0.125;
  const auto ds = nc::tpc::WedgeDataset::generate(cfg);
  auto model = nc::bcae::make_bcae_2d(nc::bcae::Bcae2dConfig{}, 25);
  const Tensor x = ds.batch_2d(ds.train(), {0, 1});
  const Tensor full = model.encode(x, Mode::kEval);
  const Tensor int8 = model.encode(x, Mode::kEvalInt8);
  const float scale = std::max(std::abs(nc::core::max_value(full)),
                               std::abs(nc::core::min_value(full)));
  // int8 error accumulates across ~10 conv layers; 10% of dynamic range is
  // the loose-but-meaningful contract (the ablation bench quantifies the
  // accuracy cost on real reconstructions).
  EXPECT_LT(nc::testref::max_abs_diff(full, int8),
            0.1 * (static_cast<double>(scale) + 1.0));
}

TEST(Quantize, Int8CacheInvalidationPicksUpNewWeights) {
  nc::util::Rng rng(27);
  nc::core::Conv2d conv(1, 1, {1, 1}, {1, 1}, {0, 0}, false, rng);
  const Tensor x = Tensor::full({1, 1, 2, 2}, 1.f);
  const Tensor before = conv.forward(x, Mode::kEvalInt8);
  std::vector<nc::core::Param*> params;
  conv.collect_params(params);
  params[0]->value[0] *= 2.f;
  conv.invalidate_half_cache();
  const Tensor after = conv.forward(x, Mode::kEvalInt8);
  EXPECT_NEAR(after[0], before[0] * 2.f,
              static_cast<double>(std::abs(before[0])) * 0.05 + 1e-4);
}

TEST(Prune, ZeroesRequestedFractionGlobally) {
  nc::util::Rng rng(31);
  nc::core::Conv2d conv(8, 8, {3, 3}, {1, 1}, {1, 1}, true, rng);
  std::vector<nc::core::Param*> params;
  conv.collect_params(params);
  EXPECT_NEAR(nc::core::weight_sparsity(params), 0.0, 1e-9);

  const auto zeroed = nc::core::prune_by_magnitude(params, 0.5);
  const double sparsity = nc::core::weight_sparsity(params);
  EXPECT_NEAR(sparsity, 0.5, 0.02);
  EXPECT_GT(zeroed, 0);
  // Biases (1-D) must be untouched.
  for (std::int64_t i = 0; i < params[1]->value.numel(); ++i) {
    EXPECT_NE(params[1]->value[i], 0.f);
  }
}

TEST(Prune, KeepsLargestWeights) {
  nc::core::Param p("w", Tensor::from_vector({2, 4}, {0.1f, -5.f, 0.2f, 3.f,
                                                      -0.05f, 1.f, -0.3f, 2.f}));
  nc::core::prune_by_magnitude({&p}, 0.5);
  // The four largest magnitudes (5, 3, 2, 1) survive.
  EXPECT_EQ(p.value[0], 0.f);
  EXPECT_EQ(p.value[1], -5.f);
  EXPECT_EQ(p.value[2], 0.f);
  EXPECT_EQ(p.value[3], 3.f);
  EXPECT_EQ(p.value[4], 0.f);
  EXPECT_EQ(p.value[5], 1.f);
  EXPECT_EQ(p.value[6], 0.f);
  EXPECT_EQ(p.value[7], 2.f);
}

TEST(Prune, PrunedModelStillRuns) {
  auto model = nc::bcae::make_bcae_ht(35);
  const auto params = model.encoder_params();
  nc::core::prune_by_magnitude(params, 0.7);
  model.invalidate_half_cache();
  EXPECT_NEAR(nc::core::weight_sparsity(params), 0.7, 0.02);
  const Tensor x = nc::testref::random_tensor({1, 1, 16, 32, 32}, 37);
  const Tensor code = model.encode(x, Mode::kEval);
  EXPECT_EQ(code.dim(1), 8);
  for (std::int64_t i = 0; i < code.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(code[i]));
  }
}

TEST(Prune, FractionZeroIsNoOp) {
  nc::util::Rng rng(41);
  nc::core::Conv2d conv(2, 2, {3, 3}, {1, 1}, {1, 1}, false, rng);
  std::vector<nc::core::Param*> params;
  conv.collect_params(params);
  EXPECT_EQ(nc::core::prune_by_magnitude(params, 0.0), 0);
  EXPECT_EQ(nc::core::prune_by_magnitude(params, -1.0), 0);
}

}  // namespace
