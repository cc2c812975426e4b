/// Activations, pooling, upsampling, normalization, residual blocks,
/// sequential containers: values + gradient checks.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/act.hpp"
#include "core/block.hpp"
#include "core/conv.hpp"
#include "core/gradcheck.hpp"
#include "core/norm.hpp"
#include "core/ops.hpp"
#include "core/pool.hpp"
#include "tests/reference.hpp"

namespace {

using nc::core::Mode;
using nc::core::Shape;
using nc::core::Tensor;
using nc::testref::random_tensor;

TEST(Activations, ReLUValues) {
  nc::core::ReLU relu;
  const Tensor x = Tensor::from_vector({4}, {-2, -0.5, 0, 3});
  const Tensor y = relu.forward(x, Mode::kEval);
  EXPECT_EQ(y[0], 0.f);
  EXPECT_EQ(y[1], 0.f);
  EXPECT_EQ(y[2], 0.f);
  EXPECT_EQ(y[3], 3.f);
}

TEST(Activations, LeakyReLUValues) {
  nc::core::LeakyReLU leaky(0.1f);
  const Tensor x = Tensor::from_vector({3}, {-2, 0, 4});
  const Tensor y = leaky.forward(x, Mode::kEval);
  EXPECT_FLOAT_EQ(y[0], -0.2f);
  EXPECT_FLOAT_EQ(y[2], 4.f);
}

/// Signed zeros, the smallest subnormals (whose products with a slope
/// underflow to -0), binary16's extremes and plain values of both signs.
const std::vector<float> kSignedInputs = {
    -0.f, 0.f,     -1e-45f, 1e-45f,  -FLT_MIN, FLT_MIN, -65504.f,
    65504.f, -2.f, 3.f,     -0.5f,  0.25f,    -1e-9f,  1e-9f};

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Activations, BranchFreeForwardMatchesTheBranchBitForBit) {
  const Tensor x = Tensor::from_vector(
      {static_cast<std::int64_t>(kSignedInputs.size())}, kSignedInputs);
  nc::core::ReLU relu;
  const Tensor r = relu.forward(x, Mode::kEval);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_TRUE(same_bits(r[i], x[i] > 0.f ? x[i] : 0.f)) << "relu " << x[i];
  }
  for (const float slope : {0.f, 0.01f, 0.1f, 0.5f, 1.f, -0.5f, 2.f}) {
    nc::core::LeakyReLU leaky(slope);
    const Tensor y = leaky.forward(x, Mode::kEval);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      EXPECT_TRUE(same_bits(y[i], x[i] > 0.f ? x[i] : slope * x[i]))
          << "slope " << slope << " x " << x[i];
    }
  }
}

TEST(Activations, BranchFreeBackwardMatchesTheBranchBitForBit) {
  const auto n = static_cast<std::int64_t>(kSignedInputs.size());
  const Tensor x = Tensor::from_vector({n}, kSignedInputs);
  std::vector<float> g(kSignedInputs.rbegin(), kSignedInputs.rend());
  const Tensor gy = Tensor::from_vector({n}, g);
  nc::core::ReLU relu;
  relu.forward(x, Mode::kTrain);
  const Tensor gr = relu.backward(gy);
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(gr[i], x[i] > 0.f ? gy[i] : 0.f)) << "relu " << x[i];
  }
  for (const float slope : {0.f, 0.01f, 0.5f, 1.f, -0.5f}) {
    nc::core::LeakyReLU leaky(slope);
    leaky.forward(x, Mode::kTrain);
    const Tensor gl = leaky.backward(gy);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(gl[i], x[i] > 0.f ? gy[i] : slope * gy[i]))
          << "slope " << slope << " x " << x[i];
    }
  }
}

TEST(Activations, SigmoidValues) {
  nc::core::Sigmoid sig;
  const Tensor x = Tensor::from_vector({3}, {0.f, 100.f, -100.f});
  const Tensor y = sig.forward(x, Mode::kEval);
  EXPECT_FLOAT_EQ(y[0], 0.5f);
  EXPECT_NEAR(y[1], 1.f, 1e-6);
  EXPECT_NEAR(y[2], 0.f, 1e-6);
}

TEST(Activations, OutputTransformPinsAboveOffset) {
  // T(x) = 6 + 3 exp(x): every output must exceed the zero-suppression
  // edge at 6 (§2.2) regardless of input.
  nc::core::OutputTransform t;
  const Tensor x = Tensor::from_vector({4}, {-50.f, -1.f, 0.f, 50.f});
  const Tensor y = t.forward(x, Mode::kEval);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_GE(y[i], 6.f);
  EXPECT_FLOAT_EQ(y[2], 9.f);  // 6 + 3*e^0
  // Clamp keeps untrained outputs finite.
  EXPECT_TRUE(std::isfinite(y[3]));
}

TEST(Activations, GradChecks) {
  // Keep inputs away from the ReLU-family kink at 0: a finite difference
  // straddling the kink would disagree with either one-sided derivative.
  Tensor x = random_tensor({2, 3, 4}, 31);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = (x[i] >= 0.f ? x[i] + 0.1f : x[i] - 0.1f);
  }
  {
    nc::core::ReLU layer;
    EXPECT_LT(nc::core::gradcheck_layer(layer, x, 201, 1e-3).max_rel_err, 5e-2);
  }
  {
    nc::core::LeakyReLU layer(0.01f);
    EXPECT_LT(nc::core::gradcheck_layer(layer, x, 202, 1e-3).max_rel_err, 5e-2);
  }
  {
    nc::core::Sigmoid layer;
    EXPECT_LT(nc::core::gradcheck_layer(layer, x, 203).max_rel_err, 5e-2);
  }
  {
    nc::core::OutputTransform layer;
    EXPECT_LT(nc::core::gradcheck_layer(layer, x, 204).max_rel_err, 5e-2);
  }
}

TEST(AvgPool2d, Values) {
  nc::core::AvgPool2d pool(2);
  const Tensor x = Tensor::from_vector({1, 1, 2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor y = pool.forward(x, Mode::kEval);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], (1 + 2 + 5 + 6) / 4.f);
  EXPECT_FLOAT_EQ(y[1], (3 + 4 + 7 + 8) / 4.f);
}

TEST(AvgPool2d, VectorizedKeepsEachOutputsSumOrder) {
  // Every window reads 1e8, 1, ..., -1e8, 1, ... in row-major order, so its
  // sum depends on the order (1e8 + 1 rounds back to 1e8), and one row of
  // windows is all -0 (0.f + -0 is +0): every output must have the bits of
  // the scalar window sum from +0 in row-major order, times 1/k^2, for the
  // k = 2 fast path and the general one, with odd output widths for the
  // vector tails.
  for (const std::int64_t k : {2, 3}) {
    const std::int64_t h = 3 * k, w = 7 * k;
    Tensor x({2, 3, h, w});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const std::int64_t y = (i / w) % h, col = i % w;
      const std::int64_t tap = (y % k) * k + col % k;
      const float sign = ((y / k + col / k) % 2) ? -1.f : 1.f;
      x[i] = sign * (tap == 0 ? 1e8f : tap == k ? -1e8f : 1.f + 0.25f * tap);
    }
    for (std::int64_t i = 0; i < k * w; ++i) x[i] = -0.f;  // row of -0 windows
    nc::core::AvgPool2d pool(k);
    const Tensor y = pool.forward(x, Mode::kEval);
    const float inv = 1.f / static_cast<float>(k * k);
    const std::int64_t oh = h / k, ow = w / k;
    for (std::int64_t p = 0; p < 2 * 3; ++p) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.f;
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              acc += x[(p * h + oy * k + ky) * w + ox * k + kx];
            }
          }
          EXPECT_TRUE(same_bits(y[(p * oh + oy) * ow + ox], acc * inv))
              << "k " << k << " plane " << p << " (" << oy << ", " << ox << ")";
        }
      }
    }
  }
}

TEST(AvgPool2d, RejectsIndivisibleInput) {
  nc::core::AvgPool2d pool(2);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 3, 4}), Mode::kEval),
               std::invalid_argument);
}

TEST(Upsample2d, NearestNeighbourValues) {
  nc::core::Upsample2d up(2);
  const Tensor x = Tensor::from_vector({1, 1, 1, 2}, {3, 7});
  const Tensor y = up.forward(x, Mode::kEval);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 4}));
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 3.f);
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 1}), 3.f);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 2}), 7.f);
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 3}), 7.f);
}

TEST(PoolUpsample, GradChecks) {
  {
    nc::core::AvgPool2d layer(2);
    const Tensor x = random_tensor({2, 2, 4, 4}, 32);
    EXPECT_LT(nc::core::gradcheck_layer(layer, x, 205).max_rel_err, 5e-2);
  }
  {
    nc::core::Upsample2d layer(2);
    const Tensor x = random_tensor({2, 2, 3, 3}, 33);
    EXPECT_LT(nc::core::gradcheck_layer(layer, x, 206).max_rel_err, 5e-2);
  }
  {
    nc::core::AvgPool3d layer({1, 2, 2});
    const Tensor x = random_tensor({1, 2, 3, 4, 4}, 34);
    EXPECT_LT(nc::core::gradcheck_layer(layer, x, 207).max_rel_err, 5e-2);
  }
  {
    nc::core::Upsample3d layer({1, 2, 2});
    const Tensor x = random_tensor({1, 2, 2, 3, 3}, 35);
    EXPECT_LT(nc::core::gradcheck_layer(layer, x, 208).max_rel_err, 5e-2);
  }
}

TEST(Upsample3d, AnisotropicScales) {
  nc::core::Upsample3d up({1, 2, 3});
  const Tensor x = random_tensor({1, 2, 2, 2, 2}, 36);
  const Tensor y = up.forward(x, Mode::kEval);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2, 4, 6}));
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 3, 5}), x.at({0, 0, 1, 1, 1}));
}

TEST(InstanceNorm, NormalizesPerChannelPerSample) {
  nc::util::Rng rng(37);
  nc::core::InstanceNorm norm(3);
  const Tensor x = random_tensor({2, 3, 8, 8}, 38);
  const Tensor y = norm.forward(x, Mode::kEval);
  // gamma=1, beta=0 at init: each (n, c) plane has ~0 mean and ~unit var.
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t c = 0; c < 3; ++c) {
      double s = 0, s2 = 0;
      for (std::int64_t i = 0; i < 64; ++i) {
        const double v = static_cast<double>(y[((n * 3 + c) * 64) + i]);
        s += v;
        s2 += v * v;
      }
      EXPECT_NEAR(s / 64.0, 0.0, 1e-4);
      EXPECT_NEAR(s2 / 64.0, 1.0, 1e-2);
    }
  }
}

TEST(InstanceNorm, GradCheck) {
  nc::core::InstanceNorm norm(2);
  const Tensor x = random_tensor({2, 2, 3, 5}, 39);
  const auto res = nc::core::gradcheck_layer(norm, x, 209, 1e-3);
  EXPECT_LT(res.max_rel_err, 5e-2) << "worst: " << res.worst_param;
}

TEST(InstanceNorm, WorksOn5dInput) {
  nc::core::InstanceNorm norm(2);
  const Tensor x = random_tensor({1, 2, 3, 4, 5}, 40);
  const Tensor y = norm.forward(x, Mode::kEval);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(ResBlock, IdentitySkipWhenChannelsMatch) {
  nc::util::Rng rng(41);
  auto block = nc::core::ResBlock::make_2d(4, 4, 3, 1, false, rng);
  std::vector<nc::core::Param*> ps;
  block->collect_params(ps);
  // Two convs only (w + b each): no skip projection.
  EXPECT_EQ(ps.size(), 4u);
}

TEST(ResBlock, ProjectionSkipWhenChannelsDiffer) {
  nc::util::Rng rng(42);
  auto block = nc::core::ResBlock::make_2d(2, 4, 3, 1, false, rng);
  std::vector<nc::core::Param*> ps;
  block->collect_params(ps);
  EXPECT_EQ(ps.size(), 6u);  // conv1 + conv2 + skip
}

TEST(ResBlock, GradCheck2d) {
  nc::util::Rng rng(43);
  auto block = nc::core::ResBlock::make_2d(2, 3, 3, 1, false, rng);
  const Tensor x = random_tensor({1, 2, 4, 4}, 44);
  const auto res = nc::core::gradcheck_layer(*block, x, 210, 1e-3);
  EXPECT_LT(res.max_rel_err, 8e-2) << "worst: " << res.worst_param;
}

TEST(ResBlock, GradCheck3dWithNorm) {
  nc::util::Rng rng(45);
  auto block = nc::core::ResBlock::make_3d(2, 2, {3, 3, 3}, {1, 1, 1},
                                           /*use_norm=*/true, rng);
  const Tensor x = random_tensor({1, 2, 3, 4, 4}, 46);
  const auto res = nc::core::gradcheck_layer(*block, x, 211, 1e-3);
  // Loose bound: InstanceNorm centers pre-activations at 0, so a few finite
  // differences inevitably straddle the LeakyReLU kink; the constituent
  // layers are each gradchecked tightly on their own above.
  EXPECT_LT(res.max_rel_err, 0.3) << "worst: " << res.worst_param;
}

TEST(ResBlock, ParamCountMatchesArithmetic) {
  // 32 -> 32, k=3: two convs of 32*32*9 + 32 = 9248 each => 18 496.
  nc::util::Rng rng(47);
  auto block = nc::core::ResBlock::make_2d(32, 32, 3, 1, false, rng);
  EXPECT_EQ(block->param_count(), 18496);
}

TEST(Sequential, ComposesAndBackpropagates) {
  nc::util::Rng rng(48);
  auto seq = std::make_unique<nc::core::Sequential>("test_seq");
  seq->add(std::make_unique<nc::core::Conv2d>(
      2, 3, std::array<std::int64_t, 2>{3, 3}, std::array<std::int64_t, 2>{1, 1},
      std::array<std::int64_t, 2>{1, 1}, true, rng));
  seq->add(std::make_unique<nc::core::LeakyReLU>());
  seq->add(std::make_unique<nc::core::AvgPool2d>(2));
  const Tensor x = random_tensor({1, 2, 4, 4}, 49);
  const Tensor y = seq->forward(x, Mode::kEval);
  EXPECT_EQ(y.shape(), (Shape{1, 3, 2, 2}));
  EXPECT_EQ(seq->size(), 3u);

  const auto res = nc::core::gradcheck_layer(*seq, x, 212);
  EXPECT_LT(res.max_rel_err, 5e-2) << "worst: " << res.worst_param;
}

constexpr Mode kEvalModes[] = {Mode::kEval, Mode::kEvalHalf, Mode::kEvalInt8};

std::int64_t differing_bits(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  std::int64_t diff = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) diff += same_bits(a[i], b[i]) ? 0 : 1;
  return diff;
}

TEST(Sequential, FusedEvalMatchesLayerByLayerBits) {
  // In the eval modes a conv and the LeakyReLU after it run as one fused
  // call, with the activation's own slope; the output must have the bits of
  // running each layer in turn.
  nc::util::Rng rng(50);
  nc::core::Sequential seq("fused_seq");
  seq.add(std::make_unique<nc::core::Conv2d>(
      3, 5, std::array<std::int64_t, 2>{3, 3}, std::array<std::int64_t, 2>{1, 1},
      std::array<std::int64_t, 2>{1, 1}, true, rng));
  seq.add(std::make_unique<nc::core::LeakyReLU>(0.2f));
  seq.add(std::make_unique<nc::core::Conv2d>(
      5, 4, std::array<std::int64_t, 2>{1, 1}, std::array<std::int64_t, 2>{1, 1},
      std::array<std::int64_t, 2>{0, 0}, true, rng));
  seq.add(std::make_unique<nc::core::LeakyReLU>(0.5f));
  seq.add(std::make_unique<nc::core::AvgPool2d>(2));
  const Tensor x = random_tensor({2, 3, 6, 8}, 51);
  for (const Mode mode : kEvalModes) {
    Tensor want = x;
    for (std::size_t i = 0; i < seq.size(); ++i) want = seq.layer(i).forward(want, mode);
    EXPECT_EQ(differing_bits(seq.forward(x, mode), want), 0)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(ResBlock, FusedEvalMatchesLayerByLayerBits) {
  // The eval forward fuses conv1 with its activation and, without norms,
  // conv2 with the skip add and the second activation.  Rebuild the block
  // from standalone layers with the same parameters and compare bits, for
  // an identity skip, a 1x1 projection skip and the normed variant.
  struct Shape2 {
    std::int64_t in_c, out_c;
    bool norm;
  };
  for (const Shape2 b : {Shape2{4, 4, false}, Shape2{2, 4, false},
                         Shape2{2, 4, true}}) {
    nc::util::Rng rng(52);
    auto block = nc::core::ResBlock::make_2d(b.in_c, b.out_c, 3, 1, b.norm, rng);
    const std::array<std::int64_t, 2> k3{3, 3}, k1{1, 1}, s1{1, 1}, p1{1, 1},
        p0{0, 0};
    nc::util::Rng other(53);
    nc::core::Conv2d conv1(b.in_c, b.out_c, k3, s1, p1, true, other);
    nc::core::Conv2d conv2(b.out_c, b.out_c, k3, s1, p1, true, other);
    nc::core::Conv2d skip(b.in_c, b.out_c, k1, s1, p0, true, other);
    nc::core::InstanceNorm norm1(b.out_c), norm2(b.out_c), norm_skip(b.out_c);
    const bool projected = b.in_c != b.out_c;
    std::vector<nc::core::Layer*> parts = {&conv1, &conv2};
    if (projected) parts.push_back(&skip);
    if (b.norm) {
      parts.push_back(&norm1);
      parts.push_back(&norm2);
      if (projected) parts.push_back(&norm_skip);
    }
    std::vector<nc::core::Param*> from, to;
    block->collect_params(from);
    for (nc::core::Layer* l : parts) l->collect_params(to);
    ASSERT_EQ(from.size(), to.size());
    for (std::size_t i = 0; i < from.size(); ++i) to[i]->value = from[i]->value.clone();
    nc::core::LeakyReLU act(0.01f);
    const Tensor x = random_tensor({2, b.in_c, 5, 6}, 54);
    for (const Mode mode : kEvalModes) {
      Tensor h = act.forward(conv1.forward(x, mode), mode);
      if (b.norm) h = norm1.forward(h, mode);
      h = conv2.forward(h, mode);
      if (b.norm) h = norm2.forward(h, mode);
      Tensor s = projected ? skip.forward(x, mode) : x;
      if (b.norm && projected) s = norm_skip.forward(s, mode);
      nc::core::add_inplace(h, s);
      const Tensor want = act.forward(h, mode);
      EXPECT_EQ(differing_bits(block->forward(x, mode), want), 0)
          << b.in_c << "->" << b.out_c << " norm " << b.norm << " mode "
          << static_cast<int>(mode);
    }
  }
}

}  // namespace
