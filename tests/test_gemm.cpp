/// GEMM kernels vs the naive reference, across transpose modes and shapes.
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>
#include <vector>

#include "core/gemm.hpp"
#include "core/ops.hpp"
#include "tests/reference.hpp"
#include "util/half.hpp"

namespace {

using nc::core::hgemm;
using nc::core::sgemm;
using nc::testref::naive_gemm;
using nc::testref::random_tensor;

struct GemmCase {
  std::int64_t m, n, k;
  bool trans_a, trans_b;
  float alpha, beta;
};

// Names the case in test listings (and so in ctest names) by its fields;
// gtest would otherwise print the struct's raw bytes, padding included.
void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << c.m << "x" << c.n << "x" << c.k << " " << (c.trans_a ? "T" : "N")
      << (c.trans_b ? "T" : "N") << " alpha=" << c.alpha << " beta=" << c.beta;
}

class GemmParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParam, MatchesNaive) {
  const auto& p = GetParam();
  // Stored matrix extents depend on the transpose flags.
  const auto a = random_tensor({p.trans_a ? p.k : p.m, p.trans_a ? p.m : p.k}, 1);
  const auto b = random_tensor({p.trans_b ? p.n : p.k, p.trans_b ? p.k : p.n}, 2);
  auto c_ref = random_tensor({p.m, p.n}, 3);
  auto c_opt = c_ref.clone();

  const std::int64_t lda = a.dim(1), ldb = b.dim(1), ldc = p.n;
  naive_gemm(p.trans_a, p.trans_b, p.m, p.n, p.k, p.alpha, a.data(), lda,
             b.data(), ldb, p.beta, c_ref.data(), ldc);
  sgemm(p.trans_a, p.trans_b, p.m, p.n, p.k, p.alpha, a.data(), lda, b.data(),
        ldb, p.beta, c_opt.data(), ldc);

  EXPECT_LT(nc::testref::max_abs_diff(c_ref, c_opt), 1e-3)
      << "m=" << p.m << " n=" << p.n << " k=" << p.k << " tA=" << p.trans_a
      << " tB=" << p.trans_b;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmParam,
    ::testing::Values(
        // Typical conv-forward shapes: small M, huge N.
        GemmCase{8, 3072, 48, false, false, 1.f, 0.f},
        GemmCase{32, 768, 288, false, false, 1.f, 0.f},
        // Backward-weight (NT) and backward-data (TN) shapes.
        GemmCase{32, 288, 768, false, true, 1.f, 1.f},
        GemmCase{288, 768, 32, true, false, 1.f, 0.f},
        // TT for completeness.
        GemmCase{17, 19, 23, true, true, 1.f, 0.f},
        // Degenerate and boundary sizes.
        GemmCase{1, 1, 1, false, false, 1.f, 0.f},
        GemmCase{1, 129, 1, false, false, 2.f, 0.f},
        GemmCase{16, 128, 16, false, false, 1.f, 0.f},
        GemmCase{33, 257, 65, false, false, 1.f, 0.5f},
        GemmCase{5, 7, 11, false, false, -1.5f, 2.f},
        // Exactly one tile, and one-past-a-tile.
        GemmCase{16, 128, 32, false, false, 1.f, 0.f},
        GemmCase{17, 129, 32, false, false, 1.f, 0.f}));

TEST(Gemm, AlphaZeroOnlyAppliesBeta) {
  auto c = random_tensor({4, 4}, 9);
  auto expect = c.clone();
  for (std::int64_t i = 0; i < expect.numel(); ++i) expect[i] *= 0.5f;
  const auto a = random_tensor({4, 4}, 10);
  sgemm(false, false, 4, 4, 4, 0.f, a.data(), 4, a.data(), 4, 0.5f, c.data(), 4);
  EXPECT_LT(nc::testref::max_abs_diff(c, expect), 1e-7);
}

TEST(Gemm, HalfGemmMatchesFloatWithinFp16Tolerance) {
  const std::int64_t m = 16, n = 200, k = 64;
  const auto a = random_tensor({m, k}, 21);
  const auto b = random_tensor({k, n}, 22);
  std::vector<nc::util::half> ah(static_cast<std::size_t>(m * k));
  std::vector<nc::util::half> bh(static_cast<std::size_t>(k * n));
  nc::util::float_to_half_n(a.data(), ah.data(), m * k);
  nc::util::float_to_half_n(b.data(), bh.data(), k * n);

  nc::core::Tensor c_ref({m, n}), c_half({m, n});
  naive_gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f,
             c_ref.data(), n);
  hgemm(m, n, k, ah.data(), k, bh.data(), n, c_half.data(), n);

  // fp16 operand rounding: relative error ~2^-11 per operand, accumulation
  // in fp32.  |c| <= k here since inputs are in [-1, 1].
  EXPECT_LT(nc::testref::max_abs_diff(c_ref, c_half), k * 2e-3);
}

TEST(Gemm, HalfGemmRaggedWidths) {
  // Exercise the 16/8/scalar tail split in the F16C kernel.
  for (std::int64_t n : {1, 7, 8, 9, 15, 16, 17, 23, 31, 33}) {
    const std::int64_t m = 3, k = 5;
    const auto a = random_tensor({m, k}, 30 + n);
    const auto b = random_tensor({k, n}, 60 + n);
    std::vector<nc::util::half> ah(static_cast<std::size_t>(m * k));
    std::vector<nc::util::half> bh(static_cast<std::size_t>(k * n));
    nc::util::float_to_half_n(a.data(), ah.data(), m * k);
    nc::util::float_to_half_n(b.data(), bh.data(), k * n);
    nc::core::Tensor c_ref({m, n}), c_half({m, n});
    naive_gemm(false, false, m, n, k, 1.f, a.data(), k, b.data(), n, 0.f,
               c_ref.data(), n);
    hgemm(m, n, k, ah.data(), k, bh.data(), n, c_half.data(), n);
    EXPECT_LT(nc::testref::max_abs_diff(c_ref, c_half), 0.02) << "n=" << n;
  }
}

TEST(Gemm, ZeroDimensionsAreNoOps) {
  nc::core::Tensor c({2, 2});
  nc::core::fill(c, 5.f);
  const auto a = random_tensor({2, 2}, 40);
  sgemm(false, false, 2, 2, 0, 1.f, a.data(), 2, a.data(), 2, 1.f, c.data(), 2);
  EXPECT_EQ(c[0], 5.f);  // k = 0: C unchanged (beta = 1)
}

}  // namespace
