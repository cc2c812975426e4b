/// Differential oracle for the output bits of Conv2d's eval modes (the
/// contract written in core/conv.hpp).  A seeded loop draws random
/// geometries, input densities, values and weights, and checks each case at
/// two levels against `dense_reference` below, a test-only copy of the
/// im2col + GEMM lowering that Conv2d used before it had a sparse one:
///
///   * kernel level, on every tier from simd::kernels_for: the dense
///     lowering with that tier's tile_hh / qgemm, and the sparse lowering
///     with that tier's scatter_conv2d;
///   * layer level, on the active tier: Conv2d::forward in kEvalHalf and
///     kEvalInt8, which picks its lowering per sample.
///
/// Any differing bit fails.  The reference is always the scalar tier's
/// dense lowering, so the suite also pins tile_hh and qgemm bit-exact across
/// tiers.  `ReorderedScatterIsCaught` proves the oracle can fail: a scatter
/// that visits voxels in (y, x, c) order changes fp16 bits.
///
/// Determinism: SplitMix64 seeded per test, in the style of
/// tools/fuzz/det_main.cpp; a failure prints the case index and parameters.
/// The oracle runs at an OpenMP team width of 1: the output bits do not
/// depend on it (each output is summed by one thread in a fixed order), and
/// a team forked for every tiny conv made the oracle 5x slower when ctest
/// runs suites side by side.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/conv.hpp"
#include "core/im2col.hpp"
#include "core/quantize.hpp"
#include "core/simd_dispatch.hpp"
#include "util/half.hpp"
#include "util/parallel.hpp"

namespace {

using nc::core::Conv2d;
using nc::core::Conv2dGeom;
using nc::core::Mode;
using nc::core::Tensor;
using nc::core::simd::Isa;
using nc::core::simd::Kernels;
using ScatterFn = decltype(Kernels::scatter_conv2d);

/// SplitMix64: the whole run is a pure function of the seed.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound must be nonzero.
  std::int64_t below(std::int64_t bound) {
    return static_cast<std::int64_t>(next() %
                                     static_cast<std::uint64_t>(bound));
  }
  /// Uniform in [lo, hi].
  std::int64_t in(std::int64_t lo, std::int64_t hi) {
    return lo + below(hi - lo + 1);
  }
  /// Uniform in [0, 1).
  float unit() { return static_cast<float>(next() >> 40) * 0x1p-24f; }

 private:
  std::uint64_t state_;
};

constexpr const char* kDensityNames[] = {"0", "one-voxel", "1%", "10%", "100%"};
constexpr const char* kValueNames[] = {"plain", "wide", "extreme"};

struct Case {
  std::int64_t n = 1, in_c = 1, out_c = 1, h = 1, w = 1;
  std::int64_t kh = 1, kw = 1, sh = 1, sw = 1, ph = 0, pw = 0;
  bool bias = true;
  int density[2] = {0, 0};  ///< per sample, index into kDensityNames
  int values = 0;           ///< index into kValueNames
  bool extreme_weights = false;

  Conv2dGeom geom() const {
    Conv2dGeom g;
    g.c = in_c;
    g.h = h;
    g.w = w;
    g.kh = kh;
    g.kw = kw;
    g.sh = sh;
    g.sw = sw;
    g.ph = ph;
    g.pw = pw;
    return g;
  }

  std::string describe() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "n=%lld c=%lld->%lld hw=%lldx%lld k=%lldx%lld s=%lldx%lld "
                  "p=%lldx%lld bias=%d density=%s/%s values=%s weights=%s",
                  static_cast<long long>(n), static_cast<long long>(in_c),
                  static_cast<long long>(out_c), static_cast<long long>(h),
                  static_cast<long long>(w), static_cast<long long>(kh),
                  static_cast<long long>(kw), static_cast<long long>(sh),
                  static_cast<long long>(sw), static_cast<long long>(ph),
                  static_cast<long long>(pw), bias ? 1 : 0,
                  kDensityNames[density[0]], kDensityNames[density[1]],
                  kValueNames[values], extreme_weights ? "extreme" : "kaiming");
    return buf;
  }
};

/// Channel counts of 1 or not a multiple of 16, so every vector tail runs;
/// one case in sixteen is the BCAE-2D input layer (16 -> 32, 7x7, pad 3).
Case draw_case(Prng& rng) {
  static constexpr std::int64_t kInC[] = {1, 2, 3, 5, 7, 17};
  static constexpr std::int64_t kOutC[] = {1, 2, 3, 5, 7, 9, 17, 20, 33};
  Case c;
  if (rng.below(16) == 0) {
    c.in_c = 16;
    c.out_c = 32;
    c.kh = c.kw = 7;
    c.ph = c.pw = 3;
  } else {
    c.in_c = kInC[rng.below(static_cast<std::int64_t>(std::size(kInC)))];
    c.out_c = kOutC[rng.below(static_cast<std::int64_t>(std::size(kOutC)))];
    c.kh = rng.in(1, 7);
    c.kw = rng.in(1, 7);
    c.sh = rng.in(1, 3);
    c.sw = rng.in(1, 3);
    c.ph = rng.below(c.kh);
    c.pw = rng.below(c.kw);
  }
  // At least one output pixel: h + 2p >= k.
  c.h = std::max<std::int64_t>(1, c.kh - 2 * c.ph) + rng.below(10);
  c.w = std::max<std::int64_t>(1, c.kw - 2 * c.pw) + rng.below(12);
  c.n = rng.in(1, 2);
  c.bias = rng.below(4) != 0;
  c.density[0] = static_cast<int>(rng.below(5));
  c.density[1] = static_cast<int>(rng.below(5));
  c.values = static_cast<int>(rng.below(3));
  c.extreme_weights = rng.below(4) == 0;
  return c;
}

/// A nonzero value: plain O(1) values; magnitudes over 10^[-9, 5] (past
/// both ends of binary16); or binary16's extremes and values below its
/// resolution, which round to zero or to its smallest subnormal.
float draw_value(Prng& rng, int style) {
  const float sign = rng.below(2) ? -1.f : 1.f;
  switch (style) {
    case 0:
      return sign * (0.01f + rng.unit());
    case 1:
      return sign * std::pow(10.f, -9.f + 14.f * rng.unit());
    default:
      switch (rng.below(5)) {
        case 0:
          return sign * nc::util::kHalfMax;
        case 1:
          return sign * 1e-9f;
        case 2:
          return sign * 3e-8f;
        case 3:
          return sign * 1e6f;
        default:
          return sign * (0.5f + rng.unit());
      }
  }
}

void fill_sample(Prng& rng, const Case& c, int density, float* x,
                 std::int64_t numel) {
  std::fill(x, x + numel, 0.f);
  if (density == 1) {
    x[rng.below(numel)] = draw_value(rng, c.values);
    return;
  }
  static constexpr float kFraction[] = {0.f, 0.f, 0.01f, 0.1f, 1.f};
  const float frac = kFraction[density];
  for (std::int64_t i = 0; i < numel; ++i) {
    if (frac >= 1.f || rng.unit() < frac) x[i] = draw_value(rng, c.values);
  }
}

/// Zeros, binary16's largest finite value and values that round to zero in
/// binary16, sprinkled over the initialized weight.
void perturb_weights(Prng& rng, Tensor& w) {
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    switch (rng.below(16)) {
      case 0:
        w[i] = 0.f;
        break;
      case 1:
        w[i] = rng.below(2) ? nc::util::kHalfMax : -nc::util::kHalfMax;
        break;
      case 2:
        w[i] = 1e-9f;
        break;
      default:
        break;
    }
  }
}

/// The derived weights both lowerings multiply with, as Conv2d caches them.
struct Weights {
  nc::core::HalfTensor half;
  nc::core::QuantizedRows q;
  const float* bias = nullptr;
  std::int64_t out_c = 0;
};

void add_bias(const Weights& wts, std::int64_t cols, float* out) {
  if (!wts.bias) return;
  for (std::int64_t o = 0; o < wts.out_c; ++o) {
    for (std::int64_t j = 0; j < cols; ++j) out[o * cols + j] += wts.bias[o];
  }
}

/// The dense Conv2d eval lowering (im2col + GEMM, then the bias as a
/// separate rounding) with every dispatched kernel taken from `ker`.
/// Test-only on purpose: later rewrites of the layer's dense path are held
/// to these bits.  One tile_hh call over the whole matrix sums each element
/// in the order hgemm's tiling does.
std::vector<float> dense_reference(const float* x, const Conv2dGeom& g,
                                   const Weights& wts, Mode mode,
                                   const Kernels& ker) {
  const std::int64_t rows = g.rows(), cols = g.cols(), numel = g.c * g.h * g.w;
  std::vector<float> out(static_cast<std::size_t>(wts.out_c * cols), 0.f);
  if (mode == Mode::kEvalHalf) {
    std::vector<nc::util::half> xh(static_cast<std::size_t>(numel));
    nc::util::float_to_half_sat_n(x, xh.data(), numel);
    std::vector<nc::util::half> col(static_cast<std::size_t>(rows * cols));
    nc::core::im2col_2d(xh.data(), g, col.data());
    ker.tile_hh(0, wts.out_c, 0, cols, rows, wts.half.data(), rows, col.data(),
                cols, out.data(), cols);
  } else {
    std::vector<float> col(static_cast<std::size_t>(rows * cols));
    nc::core::im2col_2d(x, g, col.data());
    std::vector<std::int8_t> q(col.size());
    const float max_abs = ker.max_abs(col.data(), rows * cols);
    const float scale = max_abs > 0.f ? max_abs / 127.f : 1.f;
    ker.quantize_scaled(col.data(), rows * cols, 1.f / scale, q.data());
    ker.qgemm(wts.out_c, cols, rows, wts.q.values.data(), wts.q.scales.data(),
              q.data(), scale, out.data(), cols);
  }
  add_bias(wts, cols, out.data());
  return out;
}

/// The sparse lowering at kernel level: the input rounded as the dense path
/// rounds it (binary16, or int8 codes of the input's own scale), `scatter`
/// into a pixel-major accumulator, transpose, scale, bias.
std::vector<float> sparse_lowering(const float* x, const Conv2dGeom& g,
                                   const Weights& wts, Mode mode,
                                   ScatterFn scatter) {
  const std::int64_t rows = g.rows(), cols = g.cols(), numel = g.c * g.h * g.w;
  const std::int64_t out_c = wts.out_c;
  const bool int8 = mode == Mode::kEvalInt8;
  std::vector<float> xs(static_cast<std::size_t>(numel));
  float act_scale = 1.f;
  if (int8) {
    std::vector<std::int8_t> q(xs.size());
    act_scale = nc::core::quantize_tensor(x, numel, q.data());
    std::copy(q.begin(), q.end(), xs.begin());
  } else {
    std::vector<nc::util::half> xh(xs.size());
    nc::util::float_to_half_sat_n(x, xh.data(), numel);
    nc::util::half_to_float_n(xh.data(), xs.data(), numel);
  }
  // The weight as (rows, out_c).
  std::vector<float> slab(static_cast<std::size_t>(rows * out_c));
  for (std::int64_t o = 0; o < out_c; ++o) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const auto i = static_cast<std::size_t>(o * rows + r);
      slab[static_cast<std::size_t>(r * out_c + o)] =
          int8 ? static_cast<float>(wts.q.values[i])
               : static_cast<float>(wts.half.data()[i]);
    }
  }
  std::vector<float> acc(static_cast<std::size_t>(cols * out_c), 0.f);
  scatter(xs.data(), g, out_c, slab.data(), acc.data());
  std::vector<float> out(static_cast<std::size_t>(out_c * cols));
  for (std::int64_t o = 0; o < out_c; ++o) {
    const float scale =
        int8 ? wts.q.scales[static_cast<std::size_t>(o)] * act_scale : 1.f;
    for (std::int64_t p = 0; p < cols; ++p) {
      const float v = acc[static_cast<std::size_t>(p * out_c + o)];
      out[static_cast<std::size_t>(o * cols + p)] = int8 ? v * scale : v;
    }
  }
  add_bias(wts, cols, out.data());
  return out;
}

/// Whether int8 may lower sparsely, decided by brute force: every input
/// voxel lies under some output's window, and c*kh*kw*127^2 < 2^24.
bool int8_sparse_applies(const Conv2dGeom& g) {
  if (g.rows() * 127 * 127 >= (std::int64_t{1} << 24)) return false;
  std::vector<char> hit(static_cast<std::size_t>(g.h * g.w), 0);
  for (std::int64_t oy = 0; oy < g.out_h(); ++oy) {
    for (std::int64_t ox = 0; ox < g.out_w(); ++ox) {
      for (std::int64_t ky = 0; ky < g.kh; ++ky) {
        for (std::int64_t kx = 0; kx < g.kw; ++kx) {
          const std::int64_t iy = oy * g.sh - g.ph + ky;
          const std::int64_t ix = ox * g.sw - g.pw + kx;
          if (iy >= 0 && iy < g.h && ix >= 0 && ix < g.w) {
            hit[static_cast<std::size_t>(iy * g.w + ix)] = 1;
          }
        }
      }
    }
  }
  return std::all_of(hit.begin(), hit.end(), [](char h) { return h != 0; });
}

/// A deliberately wrong scatter: the scalar kernel's arithmetic, but voxels
/// visited in (y, x, c) order, so an output sums its terms out of im2col
/// row order.
std::int64_t scatter_yxc(const float* x, const Conv2dGeom& g,
                         std::int64_t out_c, const float* slab, float* acc) {
  std::int64_t taps = 0;
  for (std::int64_t iy = 0; iy < g.h; ++iy) {
    for (std::int64_t ix = 0; ix < g.w; ++ix) {
      for (std::int64_t c = 0; c < g.c; ++c) {
        const float v = x[(c * g.h + iy) * g.w + ix];
        if (v == 0.f) continue;
        for (std::int64_t ky = 0; ky < g.kh; ++ky) {
          const std::int64_t ty = iy + g.ph - ky;
          if (ty < 0 || ty % g.sh != 0 || ty / g.sh >= g.out_h()) continue;
          for (std::int64_t kx = 0; kx < g.kw; ++kx) {
            const std::int64_t tx = ix + g.pw - kx;
            if (tx < 0 || tx % g.sw != 0 || tx / g.sw >= g.out_w()) continue;
            const float* w = slab + ((c * g.kh + ky) * g.kw + kx) * out_c;
            float* out = acc + ((ty / g.sh) * g.out_w() + tx / g.sw) * out_c;
            for (std::int64_t o = 0; o < out_c; ++o) out[o] += v * w[o];
            ++taps;
          }
        }
      }
    }
  }
  return taps;
}

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (nc::core::simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Whether `isa` overrides the GEMM kernel `mode` runs on; a tier that
/// inherits it from the tier below (avx512 inherits tile_hh from avx2) adds
/// nothing to check.
bool own_gemm(Isa isa, Mode mode) {
  if (isa == Isa::kScalar) return false;  // the reference itself
  const Kernels& ker = nc::core::simd::kernels_for(isa);
  const Kernels& below =
      nc::core::simd::kernels_for(static_cast<Isa>(static_cast<int>(isa) - 1));
  return mode == Mode::kEvalHalf ? ker.tile_hh != below.tile_hh
                                 : ker.qgemm != below.qgemm;
}

struct Stats {
  std::int64_t cases = 0;
  std::int64_t compared = 0;        ///< output floats compared
  std::int64_t differing[2] = {0, 0};  ///< by mode: fp16, int8
  std::int64_t sparse_samples[2] = {0, 0};  ///< layer samples under the gate
  std::int64_t dense_samples[2] = {0, 0};
  int reported = 0;
};

/// Count (and report the first few of) the floats whose bits differ.
void compare(const std::vector<float>& got, const std::vector<float>& want,
             const Case& c, std::int64_t index, const char* what, int m,
             Stats& st, bool expect_equal) {
  std::int64_t diff = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::uint32_t a = 0, b = 0;
    std::memcpy(&a, &got[i], sizeof a);
    std::memcpy(&b, &want[i], sizeof b);
    if (a == b) continue;
    if (diff++ == 0 && expect_equal && st.reported < 5) {
      ++st.reported;
      ADD_FAILURE() << "case " << index << " [" << c.describe() << "] " << what
                    << " " << (m == 0 ? "fp16" : "int8") << ": output " << i
                    << " is " << got[i] << " (0x" << std::hex << a
                    << "), dense reference " << want[i] << " (0x" << b << ")"
                    << std::dec;
    }
  }
  st.compared += static_cast<std::int64_t>(want.size());
  st.differing[m] += diff;
}

/// Run `cases` seeded cases: kernel level on every tier, then layer level.
/// A stand-in `scatter` replaces the tiers' scatter_conv2d, and then only
/// its sparse lowering is checked.
Stats run_oracle(std::uint64_t seed, std::int64_t cases, ScatterFn scatter,
                 bool expect_equal) {
  static constexpr Mode kModes[] = {Mode::kEvalHalf, Mode::kEvalInt8};
  const std::vector<Isa> isas =
      scatter ? std::vector<Isa>{Isa::kScalar} : supported_isas();
  nc::util::set_num_threads(1);
  const Kernels& scalar = nc::core::simd::kernels_for(Isa::kScalar);
  Prng rng(seed);
  Stats st;
  for (std::int64_t index = 0; index < cases; ++index) {
    const Case c = draw_case(rng);
    const Conv2dGeom g = c.geom();
    const std::int64_t numel = c.in_c * c.h * c.w;
    const std::int64_t out_numel = c.out_c * g.cols();

    nc::util::Rng init(rng.next());
    Conv2d layer(c.in_c, c.out_c, {c.kh, c.kw}, {c.sh, c.sw}, {c.ph, c.pw},
                 c.bias, init);
    std::vector<nc::core::Param*> params;
    layer.collect_params(params);
    Tensor& weight = params[0]->value;
    if (c.extreme_weights) perturb_weights(rng, weight);
    Weights wts;
    wts.out_c = c.out_c;
    wts.bias = c.bias ? params[1]->value.data() : nullptr;
    wts.half = nc::core::HalfTensor::from_float(weight);
    wts.q = nc::core::quantize_rows(weight.data(), c.out_c, g.rows());

    Tensor x({c.n, c.in_c, c.h, c.w});
    for (std::int64_t s = 0; s < c.n; ++s) {
      fill_sample(rng, c, c.density[s], x.data() + s * numel, numel);
    }

    for (int m = 0; m < 2; ++m) {
      const Mode mode = kModes[m];
      const bool sparse_ok = mode == Mode::kEvalHalf || int8_sparse_applies(g);
      std::vector<std::vector<float>> want;
      for (std::int64_t s = 0; s < c.n; ++s) {
        const float* xs = x.data() + s * numel;
        want.push_back(dense_reference(xs, g, wts, mode, scalar));
        for (Isa isa : isas) {
          const Kernels& ker = nc::core::simd::kernels_for(isa);
          const std::string tier = nc::core::simd::isa_name(isa);
          if (!scatter && own_gemm(isa, mode)) {
            compare(dense_reference(xs, g, wts, mode, ker), want.back(), c,
                    index, ("dense/" + tier).c_str(), m, st, expect_equal);
          }
          if (sparse_ok) {
            compare(sparse_lowering(xs, g, wts, mode,
                                    scatter ? scatter : ker.scatter_conv2d),
                    want.back(), c, index, ("sparse/" + tier).c_str(), m, st,
                    expect_equal);
          }
        }
      }
      if (scatter) continue;
      const Tensor got = layer.forward(x, mode);
      for (std::int64_t s = 0; s < c.n; ++s) {
        const std::vector<float> sample(got.data() + s * out_numel,
                                        got.data() + (s + 1) * out_numel);
        compare(sample, want[static_cast<std::size_t>(s)], c, index,
                "layer/active", m, st, expect_equal);
        const double limit = mode == Mode::kEvalHalf
                                 ? nc::core::kSparseMaxDensityHalf
                                 : nc::core::kSparseMaxDensityInt8;
        const float* xs = x.data() + s * numel;
        const auto nnz =
            std::count_if(xs, xs + numel, [](float v) { return v != 0.f; });
        const bool gated = sparse_ok && static_cast<double>(nnz) <=
                                            limit * static_cast<double>(numel);
        if (gated) {
          ++st.sparse_samples[m];
        } else {
          ++st.dense_samples[m];
        }
      }
    }
    ++st.cases;
  }
  return st;
}

TEST(ConvOracle, EvalConv2dBitExactOnEveryTier) {
  const Stats st = run_oracle(20260, 10000, nullptr, true);
  std::printf("conv oracle: %lld cases, %lld outputs compared on %zu tier(s) "
              "(active: %s); differing bits: fp16 %lld, int8 %lld; layer "
              "samples sparse/dense: fp16 %lld/%lld, int8 %lld/%lld\n",
              static_cast<long long>(st.cases),
              static_cast<long long>(st.compared), supported_isas().size(),
              nc::core::simd::isa_name(nc::core::simd::active_isa()),
              static_cast<long long>(st.differing[0]),
              static_cast<long long>(st.differing[1]),
              static_cast<long long>(st.sparse_samples[0]),
              static_cast<long long>(st.dense_samples[0]),
              static_cast<long long>(st.sparse_samples[1]),
              static_cast<long long>(st.dense_samples[1]));
  EXPECT_EQ(st.cases, 10000);
  EXPECT_EQ(st.differing[0], 0);
  EXPECT_EQ(st.differing[1], 0);
  // The draw reaches both lowerings of the layer in both modes.
  for (int m = 0; m < 2; ++m) {
    EXPECT_GT(st.sparse_samples[m], 1000) << "mode " << m;
    EXPECT_GT(st.dense_samples[m], 1000) << "mode " << m;
  }
}

TEST(ConvOracle, ReorderedScatterIsCaught) {
  // fp16 sums round at every step, so visiting voxels in (y, x, c) order
  // changes output bits.  int8 sums are exact integers below 2^24, so the
  // same reordering cannot change one: that exactness is why one fp32
  // scatter serves both modes.
  const Stats st = run_oracle(20261, 500, &scatter_yxc, false);
  EXPECT_GT(st.differing[0], 0);
  EXPECT_EQ(st.differing[1], 0);
}

}  // namespace
