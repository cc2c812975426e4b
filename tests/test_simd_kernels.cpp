/// Per-ISA equivalence suite for the runtime SIMD kernel layer
/// (core/simd_dispatch.hpp).  The contract under test: every kernel is
/// bit-exact across every ISA tier the host supports — the integer kernels
/// (`qgemm`, `max_abs`, `quantize_scaled`) because their arithmetic is
/// exact, `tile_hh` because binary16 products are exact in binary32, so an
/// FMA rounds like a multiply-then-add — and the dispatcher resolves
/// NC_SIMD-style requests correctly.  (tests/test_conv_oracle.cpp pins the
/// conv-level kernels, `scatter_conv` included.)  Shapes are
/// deliberately awkward — k not a multiple of the packing quad, n straddling
/// the 16-column tile, degenerate m/n/k — so tail paths get the same
/// scrutiny as the vector body.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/conv.hpp"
#include "core/quantize.hpp"
#include "core/simd_dispatch.hpp"
#include "tests/reference.hpp"
#include "util/half.hpp"
#include "util/rng.hpp"

namespace {

using nc::core::Tensor;
using nc::core::simd::Isa;
using nc::core::simd::Kernels;

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (nc::core::simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Deterministic int8 fill in [lo, hi] (inclusive).
void fill_i8(nc::util::Rng& rng, std::int8_t* p, std::int64_t n, int lo,
             int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::int8_t>(lo + static_cast<int>(rng.next_u64() % span));
  }
}

struct QShape {
  std::int64_t m, n, k;
};

// Awkward on purpose: k % 4 != 0 exercises the padded-A path, n % 16 != 0
// the tail tile, and the degenerate entries the early-outs.
const QShape kQgemmShapes[] = {
    {1, 1, 1},   {1, 16, 4},  {2, 15, 3},  {3, 17, 5},   {6, 33, 40},
    {4, 64, 1},  {5, 1, 7},   {2, 31, 0},  {7, 16, 129}, {16, 100, 37},
};

TEST(SimdDispatch, QgemmBitExactAcrossIsas) {
  nc::util::Rng rng(101);
  const Kernels& ref = nc::core::simd::kernels_for(Isa::kScalar);
  for (const QShape& s : kQgemmShapes) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> a_scales(static_cast<std::size_t>(s.m));
    // Weights obey the quantize_rows guarantee ([-127, 127], never -128);
    // activations use the full int8 range.
    fill_i8(rng, a.data(), s.m * s.k, -127, 127);
    fill_i8(rng, b.data(), s.k * s.n, -128, 127);
    for (auto& sc : a_scales) sc = 0.001f + 0.01f * (rng.next_u64() % 100);
    const float b_scale = 0.0375f;

    std::vector<float> c_ref(static_cast<std::size_t>(s.m * s.n), -7.f);
    ref.qgemm(s.m, s.n, s.k, a.data(), a_scales.data(), b.data(), b_scale,
              c_ref.data(), s.n);
    for (Isa isa : supported_isas()) {
      std::vector<float> c(static_cast<std::size_t>(s.m * s.n), -7.f);
      nc::core::simd::kernels_for(isa).qgemm(s.m, s.n, s.k, a.data(),
                                             a_scales.data(), b.data(),
                                             b_scale, c.data(), s.n);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(c[i], c_ref[i])
            << "isa=" << nc::core::simd::isa_name(isa) << " shape={" << s.m
            << "," << s.n << "," << s.k << "} idx=" << i;
      }
    }
  }
}

TEST(SimdDispatch, QgemmSaturationExtremesBitExact) {
  // Worst-case accumulation magnitudes: every product is ±(127*128).  The
  // AVX2 sign-transfer kernel must not saturate its i16 pair sums and the
  // AVX-512 bias trick must apply the exact row-sum correction.
  const std::int64_t m = 3, n = 17, k = 33;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < m * k; ++i) {
    a[static_cast<std::size_t>(i)] = (i % 2 == 0) ? std::int8_t{127}
                                                  : std::int8_t{-127};
  }
  for (std::int64_t i = 0; i < k * n; ++i) {
    b[static_cast<std::size_t>(i)] = (i % 3 == 0) ? std::int8_t{-128}
                                                  : std::int8_t{127};
  }
  const std::vector<float> a_scales(static_cast<std::size_t>(m), 1.f);

  std::vector<float> c_ref(static_cast<std::size_t>(m * n));
  nc::core::simd::kernels_for(Isa::kScalar)
      .qgemm(m, n, k, a.data(), a_scales.data(), b.data(), 1.f, c_ref.data(),
             n);
  for (Isa isa : supported_isas()) {
    std::vector<float> c(static_cast<std::size_t>(m * n));
    nc::core::simd::kernels_for(isa).qgemm(m, n, k, a.data(), a_scales.data(),
                                           b.data(), 1.f, c.data(), n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c[i], c_ref[i]) << "isa=" << nc::core::simd::isa_name(isa)
                                << " idx=" << i;
    }
  }
}

TEST(SimdDispatch, QgemmZeroRowsAndZeroK) {
  // All-zero weight rows hit the zero-quad skip; k == 0 must still write C
  // (the apply-scale contract) on every tier.
  const std::int64_t m = 4, n = 19;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * 8), 0);
  std::vector<std::int8_t> b(static_cast<std::size_t>(8 * n), 55);
  const std::vector<float> a_scales(static_cast<std::size_t>(m), 2.f);
  for (Isa isa : supported_isas()) {
    std::vector<float> c(static_cast<std::size_t>(m * n), 9.f);
    nc::core::simd::kernels_for(isa).qgemm(m, n, 8, a.data(), a_scales.data(),
                                           b.data(), 0.5f, c.data(), n);
    for (float v : c) ASSERT_EQ(v, 0.f) << nc::core::simd::isa_name(isa);

    std::vector<float> c0(static_cast<std::size_t>(m * n), 9.f);
    nc::core::simd::kernels_for(isa).qgemm(m, n, 0, a.data(), a_scales.data(),
                                           b.data(), 0.5f, c0.data(), n);
    for (float v : c0) ASSERT_EQ(v, 0.f) << nc::core::simd::isa_name(isa);
  }
}

TEST(SimdDispatch, MaxAbsBitExactAcrossIsas) {
  nc::util::Rng rng(202);
  for (std::int64_t n : {0, 1, 7, 8, 9, 31, 32, 33, 257}) {
    std::vector<float> x(static_cast<std::size_t>(n > 0 ? n : 1));
    for (auto& v : x) v = static_cast<float>(rng.normal() * 10.0);
    if (n > 2) x[static_cast<std::size_t>(n / 2)] = -123.5f;  // negative peak
    const float ref =
        nc::core::simd::kernels_for(Isa::kScalar).max_abs(x.data(), n);
    for (Isa isa : supported_isas()) {
      EXPECT_EQ(nc::core::simd::kernels_for(isa).max_abs(x.data(), n), ref)
          << "isa=" << nc::core::simd::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(SimdDispatch, QuantizeScaledBitExactAndRoundsToNearestEven) {
  // inv_scale = 1 makes the expected integers readable: RNE ties go to the
  // even neighbor (0.5 -> 0, 1.5 -> 2, 2.5 -> 2), matching VCVTPS2DQ.
  const std::vector<float> x = {0.5f,   -0.5f, 1.5f,  -1.5f,  2.5f,  -2.5f,
                                3.5f,   126.6f, 127.4f, 200.f, -200.f, 0.f,
                                -0.49f, 0.49f,  96.5f,  -96.5f, 33.f};
  const std::vector<std::int8_t> want = {0,   0,   2,    -2,  2,    -2,
                                         4,   127, 127,  127, -127, 0,
                                         0,   0,   96,   -96, 33};
  ASSERT_EQ(x.size(), want.size());
  for (Isa isa : supported_isas()) {
    std::vector<std::int8_t> got(x.size(), 99);
    nc::core::simd::kernels_for(isa).quantize_scaled(
        x.data(), static_cast<std::int64_t>(x.size()), 1.f, got.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << "isa=" << nc::core::simd::isa_name(isa) << " x=" << x[i];
    }
  }

  // Random sweep across vector-body + tail lengths, all tiers bit-equal.
  nc::util::Rng rng(303);
  for (std::int64_t n : {1, 15, 32, 33, 64, 100, 255}) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (auto& f : v) f = static_cast<float>(rng.normal() * 80.0);
    std::vector<std::int8_t> ref(static_cast<std::size_t>(n));
    nc::core::simd::kernels_for(Isa::kScalar)
        .quantize_scaled(v.data(), n, 0.731f, ref.data());
    for (Isa isa : supported_isas()) {
      std::vector<std::int8_t> got(static_cast<std::size_t>(n));
      nc::core::simd::kernels_for(isa).quantize_scaled(v.data(), n, 0.731f,
                                                       got.data());
      EXPECT_EQ(got, ref) << "isa=" << nc::core::simd::isa_name(isa)
                          << " n=" << n;
    }
  }
}

TEST(SimdDispatch, QuantizeTensorRoundsToNearestEven) {
  // max|x| = 127 gives scale exactly 1, so q[0] is RNE(2.5) = 2 (the old
  // round-half-away implementation produced 3).
  const float x[] = {2.5f, 127.f};
  std::int8_t q[2] = {0, 0};
  const float scale = nc::core::quantize_tensor(x, 2, q);
  EXPECT_EQ(scale, 1.f);
  EXPECT_EQ(q[0], 2);
  EXPECT_EQ(q[1], 127);
}

TEST(SimdDispatch, TileHhBitExactAcrossIsas) {
  // binary16 x binary16 products are exact in binary32, so the vector
  // tiers' FMA rounds exactly like the scalar multiply-then-add; the sum
  // order per element is ascending k on every tier.  Values span binary16's
  // range (subnormals to 65504).  The sweep crosses every register-block
  // edge (8 x 32 on AVX-512, 6 x 16 and 6 x 8 on AVX2, then single
  // columns) and the scalar tier's 256-column block, the tile sits at a
  // nonzero (i0, j0) inside a larger C, and a sentinel border catches a
  // store past the tile.
  nc::util::Rng rng(404);
  auto draw = [&rng] {
    const double mag = std::pow(10.0, rng.uniform(-7.0, 4.8));
    return nc::util::half(static_cast<float>(rng.uniform(-1.0, 1.0) * mag));
  };
  constexpr std::uint32_t kSentinel = 0x7FC0BEEFu;  // a quiet NaN
  constexpr std::int64_t i0 = 3, j0 = 5;
  for (const std::int64_t m : {1, 7, 8, 9, 17, 32}) {
    for (const std::int64_t n : {1, 15, 16, 17, 33, 48, 129, 300}) {
      for (const std::int64_t k : {1, 41, 288}) {
        const std::int64_t lda = k + 3, ldb = j0 + n + 4;
        const std::int64_t c_rows = i0 + m + 2, ldc = j0 + n + 7;
        std::vector<nc::util::half> a(static_cast<std::size_t>((i0 + m) * lda));
        std::vector<nc::util::half> b(static_cast<std::size_t>(k * ldb));
        for (auto& h : a) h = draw();
        for (auto& h : b) h = draw();
        a[static_cast<std::size_t>(i0 * lda)] = nc::util::half(nc::util::kHalfMax);
        b[static_cast<std::size_t>(j0)] = nc::util::half(-nc::util::kHalfMax);

        auto run = [&](Isa isa) {
          std::vector<std::uint32_t> c(static_cast<std::size_t>(c_rows * ldc),
                                       kSentinel);
          auto* cf = reinterpret_cast<float*>(c.data());
          nc::core::simd::kernels_for(isa).tile_hh(i0, i0 + m, j0, j0 + n, k,
                                                   a.data(), lda, b.data(),
                                                   ldb, cf, ldc);
          return c;
        };
        const std::vector<std::uint32_t> want = run(Isa::kScalar);
        for (Isa isa : supported_isas()) {
          const std::vector<std::uint32_t> got = run(isa);
          for (std::int64_t i = 0; i < c_rows; ++i) {
            for (std::int64_t j = 0; j < ldc; ++j) {
              const auto at = static_cast<std::size_t>(i * ldc + j);
              const bool inside = i >= i0 && i < i0 + m && j >= j0 && j < j0 + n;
              ASSERT_EQ(got[at], inside ? want[at] : kSentinel)
                  << "isa=" << nc::core::simd::isa_name(isa) << " m=" << m
                  << " n=" << n << " k=" << k << " at (" << i << ", " << j
                  << ")" << (inside ? "" : ", outside the tile");
            }
          }
          // The tile holds sums, not the sentinel.
          ASSERT_NE(got[static_cast<std::size_t>(i0 * ldc + j0)], kSentinel);
        }
      }
    }
  }
}

TEST(SimdDispatch, TinyMaxAbsQuantizesAlikeOnEveryTier) {
  // With max |x| below ~3.7e-37, max_abs / 127 used to have an infinite
  // reciprocal, every zero became 0 * inf = NaN, and the tiers disagreed
  // (scalar 0 through an undefined cast, AVX2 -128).  quant_scale keeps the
  // reciprocal finite; the probe's codes are then all zero on every tier.
  std::vector<float> probe(64, 0.f);
  for (std::size_t i = 0; i < probe.size(); i += 4) {
    probe[i] = 1e-40f;
    probe[i + 2] = -5e-41f;
  }
  const auto n = static_cast<std::int64_t>(probe.size());
  for (Isa isa : supported_isas()) {
    const Kernels& ker = nc::core::simd::kernels_for(isa);
    const float scale = nc::core::quant_scale(ker.max_abs(probe.data(), n));
    ASSERT_TRUE(std::isfinite(1.f / scale)) << nc::core::simd::isa_name(isa);
    std::vector<std::int8_t> codes(probe.size(), 99);
    ker.quantize_scaled(probe.data(), n, 1.f / scale, codes.data());
    EXPECT_EQ(codes, std::vector<std::int8_t>(probe.size(), 0))
        << nc::core::simd::isa_name(isa);
  }
  // The public entry points, on the active tier.
  std::vector<std::int8_t> codes(probe.size(), 99);
  EXPECT_TRUE(std::isfinite(
      1.f / nc::core::quantize_tensor(probe.data(), n, codes.data())));
  EXPECT_EQ(codes, std::vector<std::int8_t>(probe.size(), 0));
  const nc::core::QuantizedRows rows =
      nc::core::quantize_rows(probe.data(), 4, 16);
  for (float s : rows.scales) EXPECT_TRUE(std::isfinite(1.f / s));
  EXPECT_EQ(rows.values, std::vector<std::int8_t>(probe.size(), 0));
  // Normal inputs keep the plain max |x| / 127 scale.
  for (const float max_abs : {127.f * FLT_MIN, 1e-30f, 1.f, 65504.f}) {
    EXPECT_EQ(nc::core::quant_scale(max_abs), max_abs / 127.f) << max_abs;
  }
  EXPECT_EQ(nc::core::quant_scale(0.f), 1.f);
}

TEST(SimdDispatch, ResolveIsaParsing) {
  using nc::core::simd::resolve_isa;
  const Isa best = nc::core::simd::best_isa();
  EXPECT_EQ(resolve_isa(nullptr), best);
  EXPECT_EQ(resolve_isa(""), best);
  EXPECT_EQ(resolve_isa("auto"), best);
  EXPECT_EQ(resolve_isa("scalar"), Isa::kScalar);
  // Requests clamp down to what the host supports, never up.
  const Isa avx2 = resolve_isa("avx2");
  EXPECT_EQ(avx2, nc::core::simd::isa_supported(Isa::kAvx2) ? Isa::kAvx2
                                                            : Isa::kScalar);
  const Isa avx512 = resolve_isa("avx512");
  EXPECT_LE(static_cast<int>(avx512), static_cast<int>(best));
  // Unknown strings warn and fall back to auto.
  EXPECT_EQ(resolve_isa("pentium"), best);
}

TEST(SimdDispatch, ActiveTableMatchesPublicQgemm) {
  // nc::core::qgemm must be a pure forward to the active dispatch table.
  nc::util::Rng rng(505);
  const std::int64_t m = 5, n = 23, k = 18;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  fill_i8(rng, a.data(), m * k, -127, 127);
  fill_i8(rng, b.data(), k * n, -128, 127);
  const std::vector<float> a_scales(static_cast<std::size_t>(m), 0.25f);

  std::vector<float> c_pub(static_cast<std::size_t>(m * n));
  std::vector<float> c_tab(static_cast<std::size_t>(m * n));
  nc::core::qgemm(m, n, k, a.data(), a_scales.data(), b.data(), 0.125f,
                  c_pub.data(), n);
  nc::core::simd::kernels().qgemm(m, n, k, a.data(), a_scales.data(), b.data(),
                                  0.125f, c_tab.data(), n);
  EXPECT_EQ(c_pub, c_tab);
  EXPECT_TRUE(nc::core::simd::isa_supported(nc::core::simd::active_isa()));
}

// Labeled tsan via NC_TSAN_SUITES: concurrent kEvalInt8 forwards race on the
// conv layer's lazily quantized weight cache and (first call) the dispatch
// table's magic statics.  TSan verifies both are publication-safe.
TEST(SimdDispatch, ConcurrentInt8ForwardIsRaceFree) {
  nc::util::Rng rng(606);
  nc::core::Conv2d conv(3, 6, {3, 3}, {1, 1}, {1, 1}, true, rng);
  const Tensor x = nc::testref::random_tensor({1, 3, 12, 14}, 31);

  constexpr int kThreads = 4;
  std::vector<Tensor> outs;
  for (int t = 0; t < kThreads; ++t) outs.emplace_back();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      outs[static_cast<std::size_t>(t)] =
          conv.forward(x, nc::core::Mode::kEvalInt8);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(outs[static_cast<std::size_t>(t)].shape(), outs[0].shape());
    EXPECT_EQ(nc::testref::max_abs_diff(outs[static_cast<std::size_t>(t)],
                                        outs[0]),
              0.0);
  }
}

// The sparse twin of the case above, labeled tsan the same way: a
// zero-suppressed input sends Conv2d's kEvalHalf and kEvalInt8 forwards down
// the sparse lowering, so concurrent forwards race on its lazily built
// weight slab and use their thread-local accumulators.  Each mode gets a
// fresh layer so the slab is built under the race.
TEST(SimdDispatch, ConcurrentSparseForwardIsRaceFree) {
  Tensor x({2, 3, 12, 14});
  nc::util::Rng fill(607);
  std::int64_t nonzeros = 0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (fill.uniform(0.0, 1.0) < 0.1) {
      x[i] = static_cast<float>(fill.uniform(0.5, 4.0));
      ++nonzeros;
    }
  }
  const double density =
      static_cast<double>(nonzeros) / static_cast<double>(x.numel());
  ASSERT_LT(density, nc::core::kSparseMaxDensityInt8);
  ASSERT_LT(density, nc::core::kSparseMaxDensityHalf);

  for (const auto mode :
       {nc::core::Mode::kEvalHalf, nc::core::Mode::kEvalInt8}) {
    nc::util::Rng rng(608);
    nc::core::Conv2d conv(3, 6, {3, 3}, {1, 1}, {1, 1}, true, rng);
    constexpr int kThreads = 4;
    std::vector<Tensor> outs(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        outs[static_cast<std::size_t>(t)] = conv.forward(x, mode);
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 1; t < kThreads; ++t) {
      ASSERT_EQ(outs[static_cast<std::size_t>(t)].shape(), outs[0].shape());
      EXPECT_EQ(nc::testref::max_abs_diff(outs[static_cast<std::size_t>(t)],
                                          outs[0]),
                0.0);
    }
  }
}

}  // namespace
