/// Convolution layers vs direct references + gradient checks.
#include <gtest/gtest.h>

#include <ostream>

#include "core/conv.hpp"
#include "core/gradcheck.hpp"
#include "core/profiler.hpp"
#include "tests/reference.hpp"

namespace {

using nc::core::Conv2d;
using nc::core::Conv3d;
using nc::core::ConvTranspose2d;
using nc::core::ConvTranspose3d;
using nc::core::Mode;
using nc::core::Tensor;
using nc::testref::max_abs_diff;
using nc::testref::random_tensor;

using A2 = std::array<std::int64_t, 2>;
using A3 = std::array<std::int64_t, 3>;

struct Conv2dCase {
  std::int64_t in_c, out_c, h, w, k, s, p;
  bool bias;
};

// Names the case in test listings (and so in ctest names) by its fields;
// gtest would otherwise print the struct's raw bytes, padding included.
void PrintTo(const Conv2dCase& c, std::ostream* os) {
  *os << "c" << c.in_c << "-" << c.out_c << " " << c.h << "x" << c.w << " k"
      << c.k << " s" << c.s << " p" << c.p << (c.bias ? " bias" : "");
}

class Conv2dParam : public ::testing::TestWithParam<Conv2dCase> {};

TEST_P(Conv2dParam, ForwardMatchesDirect) {
  const auto& c = GetParam();
  nc::util::Rng rng(3);
  Conv2d layer(c.in_c, c.out_c, A2{c.k, c.k}, A2{c.s, c.s}, A2{c.p, c.p},
               c.bias, rng);
  const Tensor x = random_tensor({2, c.in_c, c.h, c.w}, 11);
  const Tensor got = layer.forward(x, Mode::kEval);

  std::vector<nc::core::Param*> params;
  layer.collect_params(params);
  const float* bias = c.bias ? params[1]->value.data() : nullptr;
  const Tensor ref =
      nc::testref::naive_conv2d(x, params[0]->value, bias, c.s, c.s, c.p, c.p);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_LT(max_abs_diff(got, ref), 1e-3);
}

TEST_P(Conv2dParam, HalfForwardCloseToFloat) {
  const auto& c = GetParam();
  nc::util::Rng rng(4);
  Conv2d layer(c.in_c, c.out_c, A2{c.k, c.k}, A2{c.s, c.s}, A2{c.p, c.p},
               c.bias, rng);
  const Tensor x = random_tensor({2, c.in_c, c.h, c.w}, 12);
  const Tensor full = layer.forward(x, Mode::kEval);
  const Tensor half = layer.forward(x, Mode::kEvalHalf);
  ASSERT_EQ(full.shape(), half.shape());
  EXPECT_LT(max_abs_diff(full, half), 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, Conv2dParam,
    ::testing::Values(Conv2dCase{3, 5, 12, 14, 3, 1, 1, true},
                      Conv2dCase{1, 4, 16, 16, 4, 2, 1, true},   // BCAE downsample
                      Conv2dCase{4, 2, 9, 11, 3, 2, 1, false},
                      Conv2dCase{16, 32, 12, 16, 7, 1, 3, true}, // Algorithm 1 L_in
                      Conv2dCase{8, 8, 8, 8, 1, 1, 0, true},     // 1x1 fast path
                      Conv2dCase{2, 3, 5, 5, 5, 1, 2, true},
                      Conv2dCase{3, 3, 7, 9, 3, 3, 0, false}));

TEST(Conv2d, GradCheck) {
  nc::util::Rng rng(5);
  Conv2d layer(2, 3, A2{3, 3}, A2{2, 2}, A2{1, 1}, true, rng);
  const Tensor x = random_tensor({2, 2, 6, 6}, 13);
  const auto res = nc::core::gradcheck_layer(layer, x, 101);
  EXPECT_LT(res.max_rel_err, 5e-2) << "worst: " << res.worst_param;
}

TEST(Conv2d, OneByOneGradCheck) {
  nc::util::Rng rng(6);
  Conv2d layer(3, 4, A2{1, 1}, A2{1, 1}, A2{0, 0}, true, rng);
  const Tensor x = random_tensor({1, 3, 5, 5}, 14);
  const auto res = nc::core::gradcheck_layer(layer, x, 102);
  EXPECT_LT(res.max_rel_err, 5e-2) << "worst: " << res.worst_param;
}

TEST(Conv2d, RejectsWrongInputRankOrChannels) {
  nc::util::Rng rng(7);
  Conv2d layer(3, 4, A2{3, 3}, A2{1, 1}, A2{1, 1}, true, rng);
  EXPECT_THROW(layer.forward(Tensor({1, 2, 5, 5}), Mode::kEval),
               std::invalid_argument);
  EXPECT_THROW(layer.forward(Tensor({3, 5, 5}), Mode::kEval),
               std::invalid_argument);
}

TEST(Conv2d, BackwardBeforeForwardThrows) {
  nc::util::Rng rng(8);
  Conv2d layer(1, 1, A2{3, 3}, A2{1, 1}, A2{1, 1}, false, rng);
  EXPECT_THROW(layer.backward(Tensor({1, 1, 3, 3})), std::logic_error);
}

struct Conv3dCase {
  std::int64_t in_c, out_c, d, h, w;
  A3 k, s, p;
};

void PrintTo(const Conv3dCase& c, std::ostream* os) {
  const auto dims = [os](const A3& a) {
    *os << a[0] << "x" << a[1] << "x" << a[2];
  };
  *os << "c" << c.in_c << "-" << c.out_c << " " << c.d << "x" << c.h << "x"
      << c.w << " k";
  dims(c.k);
  *os << " s";
  dims(c.s);
  *os << " p";
  dims(c.p);
}

class Conv3dParam : public ::testing::TestWithParam<Conv3dCase> {};

TEST_P(Conv3dParam, ForwardMatchesDirect) {
  const auto& c = GetParam();
  nc::util::Rng rng(9);
  Conv3d layer(c.in_c, c.out_c, c.k, c.s, c.p, true, rng);
  const Tensor x = random_tensor({2, c.in_c, c.d, c.h, c.w}, 15);
  const Tensor got = layer.forward(x, Mode::kEval);

  std::vector<nc::core::Param*> params;
  layer.collect_params(params);
  const Tensor ref = nc::testref::naive_conv3d(
      x, params[0]->value, params[1]->value.data(), c.s[0], c.s[1], c.s[2],
      c.p[0], c.p[1], c.p[2]);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_LT(max_abs_diff(got, ref), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, Conv3dParam,
    ::testing::Values(
        // The BCAE 3-D downsampling geometry: halve azim/horiz, keep radial.
        Conv3dCase{1, 4, 6, 8, 8, A3{3, 4, 4}, A3{1, 2, 2}, A3{1, 1, 1}},
        Conv3dCase{2, 3, 4, 6, 6, A3{3, 3, 3}, A3{1, 1, 1}, A3{1, 1, 1}},
        Conv3dCase{3, 2, 5, 5, 5, A3{1, 1, 1}, A3{1, 1, 1}, A3{0, 0, 0}},
        Conv3dCase{2, 2, 4, 5, 7, A3{2, 3, 2}, A3{2, 1, 2}, A3{0, 1, 0}}));

TEST(Conv3d, GradCheck) {
  nc::util::Rng rng(10);
  Conv3d layer(2, 2, A3{2, 3, 3}, A3{1, 2, 2}, A3{0, 1, 1}, true, rng);
  const Tensor x = random_tensor({1, 2, 3, 6, 6}, 16);
  const auto res = nc::core::gradcheck_layer(layer, x, 103);
  EXPECT_LT(res.max_rel_err, 5e-2) << "worst: " << res.worst_param;
}

TEST(Conv3d, HalfForwardCloseToFloat) {
  nc::util::Rng rng(11);
  Conv3d layer(1, 8, A3{3, 4, 4}, A3{1, 2, 2}, A3{1, 1, 1}, true, rng);
  const Tensor x = random_tensor({2, 1, 6, 12, 12}, 17);
  const Tensor full = layer.forward(x, Mode::kEval);
  const Tensor half = layer.forward(x, Mode::kEvalHalf);
  EXPECT_LT(max_abs_diff(full, half), 0.05);
}

TEST(ConvTranspose2d, ForwardMatchesDirectScatter) {
  nc::util::Rng rng(12);
  ConvTranspose2d layer(3, 2, A2{4, 4}, A2{2, 2}, A2{1, 1}, true, rng);
  const Tensor x = random_tensor({2, 3, 5, 6}, 18);
  const Tensor got = layer.forward(x, Mode::kEval);

  std::vector<nc::core::Param*> params;
  layer.collect_params(params);
  const Tensor ref = nc::testref::naive_deconv2d(
      x, params[0]->value, params[1]->value.data(), 2, 2, 1, 1);
  ASSERT_EQ(got.shape(), ref.shape());
  // (in-1)*2 - 2 + 4: doubles the spatial size.
  EXPECT_EQ(got.dim(2), 10);
  EXPECT_EQ(got.dim(3), 12);
  EXPECT_LT(max_abs_diff(got, ref), 1e-3);
}

TEST(ConvTranspose2d, GradCheck) {
  nc::util::Rng rng(13);
  ConvTranspose2d layer(2, 2, A2{4, 4}, A2{2, 2}, A2{1, 1}, true, rng);
  const Tensor x = random_tensor({1, 2, 3, 4}, 19);
  const auto res = nc::core::gradcheck_layer(layer, x, 104);
  EXPECT_LT(res.max_rel_err, 5e-2) << "worst: " << res.worst_param;
}

TEST(ConvTranspose2d, HalfForwardCloseToFloat) {
  nc::util::Rng rng(14);
  ConvTranspose2d layer(4, 3, A2{4, 4}, A2{2, 2}, A2{1, 1}, true, rng);
  const Tensor x = random_tensor({2, 4, 6, 6}, 20);
  const Tensor full = layer.forward(x, Mode::kEval);
  const Tensor half = layer.forward(x, Mode::kEvalHalf);
  EXPECT_LT(max_abs_diff(full, half), 0.05);
}

TEST(ConvTranspose3d, InvertsDownsampleShape) {
  // The BCAE decoder stage must exactly undo the encoder stage's shape map.
  nc::util::Rng rng(15);
  Conv3d down(1, 4, A3{3, 4, 4}, A3{1, 2, 2}, A3{1, 1, 1}, true, rng);
  ConvTranspose3d up(4, 1, A3{3, 4, 4}, A3{1, 2, 2}, A3{1, 1, 1}, true, rng);
  const Tensor x = random_tensor({1, 1, 6, 12, 16}, 21);
  const Tensor code = down.forward(x, Mode::kEval);
  EXPECT_EQ(code.shape(), (nc::core::Shape{1, 4, 6, 6, 8}));
  const Tensor back = up.forward(code, Mode::kEval);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(ConvTranspose3d, GradCheck) {
  nc::util::Rng rng(16);
  ConvTranspose3d layer(2, 2, A3{2, 4, 4}, A3{1, 2, 2}, A3{0, 1, 1}, true, rng);
  const Tensor x = random_tensor({1, 2, 2, 3, 3}, 22);
  const auto res = nc::core::gradcheck_layer(layer, x, 105);
  EXPECT_LT(res.max_rel_err, 5e-2) << "worst: " << res.worst_param;
}

TEST(ConvTranspose3d, HalfForwardCloseToFloat) {
  nc::util::Rng rng(17);
  ConvTranspose3d layer(4, 2, A3{3, 4, 4}, A3{1, 2, 2}, A3{1, 1, 1}, true, rng);
  const Tensor x = random_tensor({1, 4, 4, 5, 5}, 23);
  const Tensor full = layer.forward(x, Mode::kEval);
  const Tensor half = layer.forward(x, Mode::kEvalHalf);
  EXPECT_LT(max_abs_diff(full, half), 0.05);
}

TEST(Conv2d, ProfilerCountsTheFlopsEachLoweringExecutes) {
  // Sample 0 holds one interior voxel, so it takes the sparse lowering and
  // reaches one output per kernel tap it meets: 2 * out_c * taps flops,
  // with 9 taps in 2-D and 27 in 3-D at stride 1.  Sample 1 is dense.  At
  // stride 1 it runs in place on the zero-haloed input, whose GEMM covers
  // the padded-pitch grid: 2 * out_c * n' * (c * taps) flops, n' = (od - 1)
  // * plane + (oh - 1) * pitch + ow with pitch = w + 2 and plane = (h + 2) *
  // pitch (52 columns for 6 x 7, 340 for 5 x 6 x 7).  At stride 2 in y and
  // x it runs vol2col_3d and the full GEMM: 2 * out_c * (output voxels) *
  // (c * taps), and the voxel meets 2 taps along y and x.  Conv3d runs the
  // same lowerings and must count alike.
  nc::util::Rng rng(19);
  Conv2d conv2(2, 4, A2{3, 3}, A2{1, 1}, A2{1, 1}, true, rng, "flops_probe");
  Conv3d conv3(2, 4, A3{3, 3, 3}, A3{1, 1, 1}, A3{1, 1, 1}, true, rng,
               "flops_probe");
  Conv2d conv2s(2, 4, A2{3, 3}, A2{2, 2}, A2{1, 1}, true, rng, "flops_probe");
  Conv3d conv3s(2, 4, A3{3, 3, 3}, A3{1, 2, 2}, A3{1, 1, 1}, true, rng,
                "flops_probe");
  Tensor x2({2, 2, 6, 7});
  x2.at({0, 1, 3, 3}) = 1.5f;
  for (std::int64_t i = 2 * 6 * 7; i < x2.numel(); ++i) x2[i] = 0.25f;
  Tensor x3({2, 2, 5, 6, 7});
  x3.at({0, 1, 2, 3, 3}) = 1.5f;
  for (std::int64_t i = 2 * 5 * 6 * 7; i < x3.numel(); ++i) x3[i] = 0.25f;
  struct Probe {
    nc::core::Layer* layer;
    const Tensor* x;
    double want;
  };
  const Probe probes[] = {
      {&conv2, &x2, 2.0 * 4 * 9 + 2.0 * 4 * (5 * 9 + 7) * (2 * 9)},
      {&conv3, &x3, 2.0 * 4 * 27 + 2.0 * 4 * (4 * 72 + 5 * 9 + 7) * (2 * 27)},
      {&conv2s, &x2, 2.0 * 4 * 4 + 2.0 * 4 * (3 * 4) * (2 * 9)},
      {&conv3s, &x3, 2.0 * 4 * 12 + 2.0 * 4 * (5 * 3 * 4) * (2 * 27)}};

  auto& prof = nc::core::Profiler::instance();
  for (const Probe& probe : probes) {
    for (const Mode mode : {Mode::kEvalHalf, Mode::kEvalInt8}) {
      prof.clear();
      prof.set_enabled(true);
      (void)probe.layer->forward(*probe.x, mode);
      prof.set_enabled(false);
      const auto entries = prof.entries();
      ASSERT_EQ(entries.size(), 1u);
      EXPECT_EQ(entries[0].first, "flops_probe");
      EXPECT_DOUBLE_EQ(entries[0].second.flops, probe.want)
          << probe.x->ndim() - 2 << "-D "
          << (mode == Mode::kEvalHalf ? "fp16" : "int8");
    }
  }
  prof.clear();
}

TEST(Conv2d, HalfCacheInvalidationPicksUpNewWeights) {
  nc::util::Rng rng(18);
  Conv2d layer(1, 1, A2{1, 1}, A2{1, 1}, A2{0, 0}, false, rng);
  const Tensor x = Tensor::full({1, 1, 2, 2}, 1.f);
  const Tensor before = layer.forward(x, Mode::kEvalHalf);
  std::vector<nc::core::Param*> params;
  layer.collect_params(params);
  params[0]->value[0] += 1.f;
  // Without invalidation the stale fp16 weight would be reused.
  layer.invalidate_half_cache();
  const Tensor after = layer.forward(x, Mode::kEvalHalf);
  EXPECT_NEAR(after[0] - before[0], 1.f, 1e-2);
}

TEST(Conv2d, CacheInvalidationReachesTheSparseWeightSlabs) {
  // One nonzero voxel takes the sparse lowering, whose widened weight slabs
  // are caches of their own; invalidation must drop them too, in Conv2d and
  // in Conv3d.
  nc::util::Rng rng(20);
  Conv2d conv2(1, 1, A2{1, 1}, A2{1, 1}, A2{0, 0}, false, rng);
  Conv3d conv3(1, 1, A3{1, 1, 1}, A3{1, 1, 1}, A3{0, 0, 0}, false, rng);
  Tensor x2({1, 1, 4, 4});
  x2[5] = 1.f;
  Tensor x3({1, 1, 2, 4, 4});
  x3[21] = 1.f;
  struct Probe {
    nc::core::Layer* layer;
    const Tensor* x;
    std::int64_t at;  ///< the nonzero voxel, which the 1x1 conv scales
  };
  for (const Probe& probe : {Probe{&conv2, &x2, 5}, Probe{&conv3, &x3, 21}}) {
    std::vector<nc::core::Param*> params;
    probe.layer->collect_params(params);
    for (const Mode mode : {Mode::kEvalHalf, Mode::kEvalInt8}) {
      params[0]->value[0] = 0.5f;
      probe.layer->invalidate_half_cache();
      EXPECT_NEAR(probe.layer->forward(*probe.x, mode)[probe.at], 0.5f, 1e-2);
      params[0]->value[0] = 1.5f;
      probe.layer->invalidate_half_cache();
      EXPECT_NEAR(probe.layer->forward(*probe.x, mode)[probe.at], 1.5f, 1e-2);
    }
  }
}

}  // namespace
