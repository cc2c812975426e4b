/// vol2col / col2vol lowering: consistency with direct convolution and the
/// adjoint property that makes backward-data correct.  The 2-D cases run as
/// the depth-1 volumes every 2-D conv lowers as.
#include <gtest/gtest.h>

#include <vector>

#include "core/im2col.hpp"
#include "tests/reference.hpp"

namespace {

using nc::core::Conv3dGeom;
using nc::core::Tensor;
using nc::testref::random_tensor;

TEST(Im2col, GeometryArithmetic) {
  Conv3dGeom g;  // 2-D: depth 1, depth kernel 1
  g.d = g.kd = 1;
  g.c = 3;
  g.h = 10;
  g.w = 12;
  g.kh = g.kw = 3;
  g.sh = g.sw = 2;
  g.ph = g.pw = 1;
  EXPECT_EQ(g.out_h(), 5);
  EXPECT_EQ(g.out_w(), 6);
  EXPECT_EQ(g.rows(), 27);
  EXPECT_EQ(g.cols(), 30);
}

TEST(Im2col, ReproducesPatchExtraction) {
  // 1 channel, 3x3 image, k=2, s=1, p=0: four 2x2 patches.
  Conv3dGeom g;  // 2-D: depth 1, depth kernel 1
  g.d = g.kd = 1;
  g.c = 1;
  g.h = 3;
  g.w = 3;
  g.kh = g.kw = 2;
  const Tensor x = Tensor::from_vector({9}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  std::vector<float> cols(static_cast<std::size_t>(g.rows() * g.cols()));
  nc::core::vol2col_3d(x.data(), g, cols.data());
  // Row r of cols = kernel offset r, column o = output position o.
  // Kernel offset (0,0) across outputs: 1, 2, 4, 5.
  EXPECT_EQ(cols[0], 1.f);
  EXPECT_EQ(cols[1], 2.f);
  EXPECT_EQ(cols[2], 4.f);
  EXPECT_EQ(cols[3], 5.f);
  // Kernel offset (1,1): 5, 6, 8, 9.
  EXPECT_EQ(cols[12], 5.f);
  EXPECT_EQ(cols[15], 9.f);
}

TEST(Im2col, PaddingYieldsZeros) {
  Conv3dGeom g;  // 2-D: depth 1, depth kernel 1
  g.d = g.kd = 1;
  g.c = 1;
  g.h = 2;
  g.w = 2;
  g.kh = g.kw = 3;
  g.ph = g.pw = 1;
  const Tensor x = Tensor::from_vector({4}, {1, 2, 3, 4});
  std::vector<float> cols(static_cast<std::size_t>(g.rows() * g.cols()));
  nc::core::vol2col_3d(x.data(), g, cols.data());
  // First row = kernel offset (-1,-1): samples entirely in the top-left pad
  // except output (1,1) which reads input (0,0).
  EXPECT_EQ(cols[0], 0.f);
  EXPECT_EQ(cols[1], 0.f);
  EXPECT_EQ(cols[2], 0.f);
  EXPECT_EQ(cols[3], 1.f);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <col2im(C), X> == <C, im2col(X)> for all C, X — the defining property
  // that makes conv backward-data (and deconv forward) correct.
  Conv3dGeom g;  // 2-D: depth 1, depth kernel 1
  g.d = g.kd = 1;
  g.c = 2;
  g.h = 7;
  g.w = 6;
  g.kh = 3;
  g.kw = 2;
  g.sh = 2;
  g.sw = 1;
  g.ph = 1;
  g.pw = 1;
  const Tensor x = random_tensor({g.c * g.h * g.w}, 91);
  const Tensor c = random_tensor({g.rows() * g.cols()}, 92);

  std::vector<float> cols(static_cast<std::size_t>(g.rows() * g.cols()));
  nc::core::vol2col_3d(x.data(), g, cols.data());
  double lhs = 0.0;
  for (std::int64_t i = 0; i < c.numel(); ++i) lhs += static_cast<double>(c[i]) *
               static_cast<double>(cols[static_cast<std::size_t>(i)]);

  std::vector<float> img(static_cast<std::size_t>(g.c * g.h * g.w), 0.f);
  nc::core::col2vol_3d(c.data(), g, img.data());
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) *
               static_cast<double>(img[static_cast<std::size_t>(i)]);

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Vol2col, Col2volIsAdjoint) {
  Conv3dGeom g;
  g.c = 2;
  g.d = 4;
  g.h = 5;
  g.w = 6;
  g.kd = 2;
  g.kh = 3;
  g.kw = 3;
  g.sd = 1;
  g.sh = 2;
  g.sw = 2;
  g.pd = 0;
  g.ph = 1;
  g.pw = 1;
  const Tensor x = random_tensor({g.c * g.d * g.h * g.w}, 93);
  const Tensor c = random_tensor({g.rows() * g.cols()}, 94);

  std::vector<float> cols(static_cast<std::size_t>(g.rows() * g.cols()));
  nc::core::vol2col_3d(x.data(), g, cols.data());
  double lhs = 0.0;
  for (std::int64_t i = 0; i < c.numel(); ++i) lhs += static_cast<double>(c[i]) *
               static_cast<double>(cols[static_cast<std::size_t>(i)]);

  std::vector<float> vol(static_cast<std::size_t>(g.c * g.d * g.h * g.w), 0.f);
  nc::core::col2vol_3d(c.data(), g, vol.data());
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x[i]) *
               static_cast<double>(vol[static_cast<std::size_t>(i)]);

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, HalfDestinationMatchesFloatWithinRounding) {
  Conv3dGeom g;  // 2-D: depth 1, depth kernel 1
  g.d = g.kd = 1;
  g.c = 3;
  g.h = 8;
  g.w = 8;
  g.kh = g.kw = 3;
  g.ph = g.pw = 1;
  const Tensor x = random_tensor({g.c * g.h * g.w}, 95);
  std::vector<float> cols_f(static_cast<std::size_t>(g.rows() * g.cols()));
  std::vector<nc::util::half> cols_h(cols_f.size());
  nc::core::vol2col_3d(x.data(), g, cols_f.data());

  // Half path: pre-convert the source, then lower half -> half.
  std::vector<nc::util::half> xh(static_cast<std::size_t>(x.numel()));
  nc::util::float_to_half_n(x.data(), xh.data(), x.numel());
  nc::core::vol2col_3d(xh.data(), g, cols_h.data());

  for (std::size_t i = 0; i < cols_f.size(); ++i) {
    EXPECT_NEAR(static_cast<float>(cols_h[i]), cols_f[i], 1e-3);
  }
}

}  // namespace
