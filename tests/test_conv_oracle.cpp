/// Differential oracle for the output bits of every eval conv path (the
/// contract written in core/conv.hpp): Conv2d and Conv3d in kEvalHalf and
/// kEvalInt8, ConvTranspose2d and ConvTranspose3d in kEvalHalf.  A seeded
/// loop draws random geometries, input densities, values and weights, and
/// checks each case at two levels against a self-contained reference: an
/// element-by-element vol2col (or col2vol) and a plain GEMM loop, written
/// here and sharing no code with the library.  The 2-D kinds run as the
/// depth-1 case, as the library's layers do.
///
///   * kernel level, on every tier from simd::kernels_for: the library's
///     dense lowering (its vol2col_3d / col2vol_3d) with that tier's tile_hh,
///     or max_abs + quantize_scaled + qgemm; and, for Conv2d and Conv3d, the
///     sparse lowering with that tier's scatter_conv;
///   * layer level, on the active tier: the layer's own forward, which picks
///     its lowering per sample.
///
/// Any differing bit fails.  The int8 reference quantizes the column matrix
/// (scale from its max |x|), while the library quantizes the input first
/// (scale from the max |x| of the voxels some window covers) and lowers the
/// codes; the two must agree code for code.  Five stand-ins prove the
/// oracle can fail: scatters that visit voxels in (y, x, c) or (c, y, x, z)
/// order, a scatter whose depth taps land one output depth off, a tile that
/// sums k in descending order, and a lowering whose copied run starts one
/// column late.
///
/// Determinism: SplitMix64 seeded per test, in the style of
/// tools/fuzz/det_main.cpp; a failure prints the case index and parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/conv.hpp"
#include "core/im2col.hpp"
#include "core/quantize.hpp"
#include "core/simd_dispatch.hpp"
#include "util/half.hpp"
#include "util/parallel.hpp"

namespace {

using nc::core::Conv3dGeom;
using nc::core::Mode;
using nc::core::Tensor;
using nc::core::simd::Isa;
using nc::core::simd::Kernels;
using nc::util::half;
using ScatterFn = decltype(Kernels::scatter_conv);
using TileFn = decltype(Kernels::tile_hh);

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
  template <typename T, std::size_t N>
  T pick(const T (&options)[N]) {
    return options[below(static_cast<std::int64_t>(N))];
  }

 private:
  std::uint64_t state_;
};

enum class Kind { kConv2d, kConv3d, kDeconv2d, kDeconv3d };

constexpr const char* kKindNames[] = {"conv2d", "conv3d", "deconv2d",
                                      "deconv3d"};
constexpr const char* kDensityNames[] = {"0", "one-voxel", "1%", "10%", "100%"};
constexpr const char* kValueNames[] = {"plain", "wide", "extreme"};

/// One drawn case.  Spatial fields are (depth, height, width); the 2-D kinds
/// keep depth 1 with a depth kernel of 1, which lowers exactly as 2-D.
/// (d, h, w) is always the layer's input.
struct Case {
  Kind kind = Kind::kConv2d;
  std::int64_t n = 1, in_c = 1, out_c = 1;
  std::int64_t dim[3] = {1, 1, 1}, k[3] = {1, 1, 1}, s[3] = {1, 1, 1},
               p[3] = {0, 0, 0};
  bool bias = true;
  int density[2] = {0, 0};  ///< per sample, index into kDensityNames
  int values = 0;           ///< index into kValueNames
  bool extreme_weights = false;

  bool transposed() const {
    return kind == Kind::kDeconv2d || kind == Kind::kDeconv3d;
  }
  bool two_d() const { return kind == Kind::kConv2d || kind == Kind::kDeconv2d; }
  /// Output extent along axis a.
  std::int64_t out(int a) const {
    return transposed() ? (dim[a] - 1) * s[a] - 2 * p[a] + k[a]
                        : (dim[a] + 2 * p[a] - k[a]) / s[a] + 1;
  }
  /// The vol2col geometry: the conv's own, or for a transposed conv the
  /// forward conv mapping its output back onto its input.
  Conv3dGeom geom3() const {
    Conv3dGeom g;
    g.c = transposed() ? out_c : in_c;
    const std::int64_t* extent = dim;
    std::int64_t outs[3] = {out(0), out(1), out(2)};
    if (transposed()) extent = outs;
    g.d = extent[0];
    g.h = extent[1];
    g.w = extent[2];
    g.kd = k[0];
    g.kh = k[1];
    g.kw = k[2];
    g.sd = s[0];
    g.sh = s[1];
    g.sw = s[2];
    g.pd = p[0];
    g.ph = p[1];
    g.pw = p[2];
    return g;
  }
  std::int64_t in_numel() const { return in_c * dim[0] * dim[1] * dim[2]; }
  std::int64_t out_numel() const { return out_c * out(0) * out(1) * out(2); }

  std::string describe() const {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "%s n=%lld c=%lld->%lld in=%lldx%lldx%lld k=%lldx%lldx%lld "
        "s=%lldx%lldx%lld p=%lldx%lldx%lld bias=%d density=%s/%s values=%s "
        "weights=%s",
        kKindNames[static_cast<int>(kind)], static_cast<long long>(n),
        static_cast<long long>(in_c), static_cast<long long>(out_c),
        static_cast<long long>(dim[0]), static_cast<long long>(dim[1]),
        static_cast<long long>(dim[2]), static_cast<long long>(k[0]),
        static_cast<long long>(k[1]), static_cast<long long>(k[2]),
        static_cast<long long>(s[0]), static_cast<long long>(s[1]),
        static_cast<long long>(s[2]), static_cast<long long>(p[0]),
        static_cast<long long>(p[1]), static_cast<long long>(p[2]), bias ? 1 : 0,
        kDensityNames[density[0]], kDensityNames[density[1]],
        kValueNames[values], extreme_weights ? "extreme" : "kaiming");
    return buf;
  }
};

/// Draw one axis: kernel in [1, kmax], stride in [1, smax], pad < kernel,
/// and an input extent giving at least one output (plus up to `extra`).
void draw_axis(Prng& rng, Case& c, int a, std::int64_t kmax, std::int64_t smax,
               std::int64_t extra) {
  c.k[a] = rng.in(1, kmax);
  c.s[a] = rng.in(1, smax);
  c.p[a] = rng.below(c.k[a]);
  std::int64_t lo = 1;
  if (c.transposed()) {
    // (d - 1) * s - 2p + k >= 1
    const std::int64_t need = 2 * c.p[a] - c.k[a] + 1;
    if (need > 0) lo = 1 + (need + c.s[a] - 1) / c.s[a];
  } else {
    lo = std::max<std::int64_t>(1, c.k[a] - 2 * c.p[a]);  // h + 2p >= k
  }
  c.dim[a] = lo + rng.below(extra + 1);
}

/// Channel counts of 1 or not a multiple of 16, so every vector tail runs;
/// one case in sixteen (2-D conv) or eight (the others) takes a BCAE layer's
/// geometry: the BCAE-2D input layer (16 -> 32, 7x7, pad 3), the BCAE-3D
/// encoder's downsampling conv and the decoder's upsampling transposed conv
/// (kernel 3x4x4, stride 1x2x2, pad 1; its 4x4 slice for deconv2d).
Case draw_case(Prng& rng, Kind kind) {
  static constexpr std::int64_t kInC[] = {1, 2, 3, 5, 7, 17};
  static constexpr std::int64_t kOutC[] = {1, 2, 3, 5, 7, 9, 17, 20, 33};
  Case c;
  c.kind = kind;
  const bool bcae = rng.below(kind == Kind::kConv2d ? 16 : 8) == 0;
  if (kind == Kind::kConv2d && bcae) {
    c.in_c = 16;
    c.out_c = 32;
    c.k[1] = c.k[2] = 7;
    c.p[1] = c.p[2] = 3;
    c.dim[1] = 1 + rng.below(10);
    c.dim[2] = 1 + rng.below(12);
  } else if (kind == Kind::kConv2d) {
    c.in_c = rng.pick(kInC);
    c.out_c = rng.pick(kOutC);
    draw_axis(rng, c, 1, 7, 3, 9);
    draw_axis(rng, c, 2, 7, 3, 11);
  } else if (bcae) {
    c.in_c = kind == Kind::kConv3d ? rng.pick({1, 4}) : 8;
    c.out_c = kind == Kind::kConv3d ? 8 : rng.pick({1, 4});
    c.k[1] = c.k[2] = 4;
    c.s[1] = c.s[2] = 2;
    c.p[1] = c.p[2] = 1;
    if (!c.two_d()) {
      c.k[0] = 3;
      c.p[0] = 1;
      c.dim[0] = rng.in(1, 4);
    }
    const bool up = kind != Kind::kConv3d;
    c.dim[1] = up ? rng.in(1, 5) : 2 * rng.in(1, 6);
    c.dim[2] = up ? rng.in(1, 6) : 2 * rng.in(1, 7);
  } else {
    c.in_c = rng.pick(kInC);
    c.out_c = rng.pick(kOutC);
    const bool three = kind == Kind::kConv3d || kind == Kind::kDeconv3d;
    if (three) draw_axis(rng, c, 0, 3, 2, 3);
    draw_axis(rng, c, 1, three ? 4 : 6, three ? 2 : 3, three ? 5 : 7);
    draw_axis(rng, c, 2, three ? 4 : 6, three ? 2 : 3, three ? 6 : 9);
  }
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

// ---- the self-contained reference ------------------------------------------

/// The layer with its derived weights, cast as the layers cache them: the
/// GEMM's A operand as (gemm rows, gemm k) binary16 and, for convs, int8
/// rows with their scales.
struct Layer {
  std::unique_ptr<nc::core::Layer> layer;
  std::vector<half> a_half;
  nc::core::QuantizedRows q;
  const float* bias = nullptr;
};

Layer make_layer(Prng& rng, const Case& c) {
  Layer l;
  nc::util::Rng init(rng.next());
  const std::array<std::int64_t, 2> k2{c.k[1], c.k[2]}, s2{c.s[1], c.s[2]},
      p2{c.p[1], c.p[2]};
  const std::array<std::int64_t, 3> k3{c.k[0], c.k[1], c.k[2]},
      s3{c.s[0], c.s[1], c.s[2]}, p3{c.p[0], c.p[1], c.p[2]};
  switch (c.kind) {
    case Kind::kConv2d:
      l.layer = std::make_unique<nc::core::Conv2d>(c.in_c, c.out_c, k2, s2, p2,
                                                   c.bias, init);
      break;
    case Kind::kConv3d:
      l.layer = std::make_unique<nc::core::Conv3d>(c.in_c, c.out_c, k3, s3, p3,
                                                   c.bias, init);
      break;
    case Kind::kDeconv2d:
      l.layer = std::make_unique<nc::core::ConvTranspose2d>(
          c.in_c, c.out_c, k2, s2, p2, c.bias, init);
      break;
    case Kind::kDeconv3d:
      l.layer = std::make_unique<nc::core::ConvTranspose3d>(
          c.in_c, c.out_c, k3, s3, p3, c.bias, init);
      break;
  }
  std::vector<nc::core::Param*> params;
  l.layer->collect_params(params);
  Tensor& w = params[0]->value;
  if (c.extreme_weights) perturb_weights(rng, w);
  l.bias = c.bias ? params[1]->value.data() : nullptr;
  const std::int64_t rows = c.geom3().rows();
  l.a_half.resize(static_cast<std::size_t>(w.numel()));
  if (c.transposed()) {
    // W is (in_c, rows); the GEMM multiplies its transpose (rows, in_c).
    for (std::int64_t i = 0; i < c.in_c; ++i) {
      for (std::int64_t r = 0; r < rows; ++r) {
        l.a_half[static_cast<std::size_t>(r * c.in_c + i)] =
            half(w[i * rows + r]);
      }
    }
  } else {
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      l.a_half[static_cast<std::size_t>(i)] = half(w[i]);
    }
    l.q = nc::core::quantize_rows(w.data(), c.out_c, rows);
  }
  return l;
}

/// Calls f(r, p, v) for every (column row r, output p) pair whose tap reads
/// inside the volume, v being the voxel's index; in ascending (r, p) order.
template <typename F>
void for_each_tap(const Conv3dGeom& g, F&& f) {
  const std::int64_t od = g.out_d(), oh = g.out_h(), ow = g.out_w();
  std::int64_t r = 0;
  for (std::int64_t c = 0; c < g.c; ++c)
    for (std::int64_t kz = 0; kz < g.kd; ++kz)
      for (std::int64_t ky = 0; ky < g.kh; ++ky)
        for (std::int64_t kx = 0; kx < g.kw; ++kx, ++r) {
          std::int64_t p = 0;
          for (std::int64_t oz = 0; oz < od; ++oz)
            for (std::int64_t oy = 0; oy < oh; ++oy)
              for (std::int64_t ox = 0; ox < ow; ++ox, ++p) {
                const std::int64_t iz = oz * g.sd - g.pd + kz;
                const std::int64_t iy = oy * g.sh - g.ph + ky;
                const std::int64_t ix = ox * g.sw - g.pw + kx;
                if (iz >= 0 && iz < g.d && iy >= 0 && iy < g.h && ix >= 0 &&
                    ix < g.w) {
                  f(r, p, ((c * g.d + iz) * g.h + iy) * g.w + ix);
                }
              }
        }
}

/// Element by element: col[r, p] = the voxel tap r of output p reads, or 0
/// in the padding.
template <typename T>
std::vector<T> ref_vol2col(const T* x, const Conv3dGeom& g) {
  const std::int64_t cols = g.cols();
  std::vector<T> col(static_cast<std::size_t>(g.rows() * cols), T(0));
  for_each_tap(g, [&](std::int64_t r, std::int64_t p, std::int64_t v) {
    col[static_cast<std::size_t>(r * cols + p)] = x[v];
  });
  return col;
}

/// Element by element: the voxel tap r of output p reads += col[r, p], in
/// ascending (r, p) order, the order col2vol_3d adds in.
void ref_col2vol(const std::vector<float>& col, const Conv3dGeom& g,
                 float* out) {
  const std::int64_t cols = g.cols();
  for_each_tap(g, [&](std::int64_t r, std::int64_t p, std::int64_t v) {
    out[v] += col[static_cast<std::size_t>(r * cols + p)];
  });
}

/// C (m x n) = A (m x k) B (k x n) in fp32, every element summed from +0 in
/// ascending k.  Products of binary16 values are exact in binary32, so it
/// does not matter whether the compiler fuses the multiply and the add.
std::vector<float> ref_gemm(const half* a, const float* b, std::int64_t m,
                            std::int64_t n, std::int64_t k) {
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.f);
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c.data() + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = static_cast<float>(a[i * k + kk]);
      const float* bk = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += av * bk[j];
    }
  }
  return c;
}

/// The dequantization scale for a largest magnitude `max_abs`, at least
/// FLT_MIN so that its reciprocal is finite.
float ref_scale(float max_abs) {
  return max_abs > 0.f ? std::max(max_abs / 127.f, FLT_MIN) : 1.f;
}

std::int8_t ref_code(float x, float inv_scale) {
  const float v = std::min(127.f, std::max(-127.f, x * inv_scale));
  return static_cast<std::int8_t>(static_cast<int>(std::nearbyintf(v)));
}

void add_bias(const float* bias, std::int64_t out_c, std::int64_t plane,
              float* out) {
  if (!bias) return;
  for (std::int64_t o = 0; o < out_c; ++o) {
    for (std::int64_t j = 0; j < plane; ++j) out[o * plane + j] += bias[o];
  }
}

std::vector<float> rounded_to_half(const float* x, std::int64_t n) {
  std::vector<half> h(static_cast<std::size_t>(n));
  nc::util::float_to_half_sat_n(x, h.data(), n);
  std::vector<float> f(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    f[static_cast<std::size_t>(i)] = static_cast<float>(h[static_cast<std::size_t>(i)]);
  }
  return f;
}

/// The reference output of one sample: lower the input as written above,
/// multiply, then add the bias as a separate rounding.  int8 quantizes the
/// lowered column matrix with the scale of its own max |x|.
std::vector<float> reference(const float* x, const Case& c, const Layer& l,
                             Mode mode) {
  const Conv3dGeom g = c.geom3();
  const std::int64_t rows = g.rows();
  std::vector<float> out(static_cast<std::size_t>(c.out_numel()), 0.f);
  if (c.transposed()) {
    const std::int64_t cols = c.dim[0] * c.dim[1] * c.dim[2];
    const std::vector<float> xr = rounded_to_half(x, c.in_numel());
    ref_col2vol(ref_gemm(l.a_half.data(), xr.data(), rows, cols, c.in_c), g,
                out.data());
  } else if (mode == Mode::kEvalHalf) {
    const std::vector<float> xr = rounded_to_half(x, c.in_numel());
    out = ref_gemm(l.a_half.data(), ref_vol2col(xr.data(), g).data(), c.out_c,
                   g.cols(), rows);
  } else {
    const std::int64_t cols = g.cols();
    const std::vector<float> col = ref_vol2col(x, g);
    float max_abs = 0.f;
    for (float v : col) max_abs = std::max(max_abs, std::fabs(v));
    const float scale = ref_scale(max_abs);
    std::vector<std::int32_t> codes(col.size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      codes[i] = ref_code(col[i], 1.f / scale);
    }
    std::vector<std::int32_t> acc(static_cast<std::size_t>(cols));
    for (std::int64_t o = 0; o < c.out_c; ++o) {
      std::fill(acc.begin(), acc.end(), 0);
      for (std::int64_t r = 0; r < rows; ++r) {
        const std::int32_t a = l.q.values[static_cast<std::size_t>(o * rows + r)];
        const std::int32_t* code = codes.data() + r * cols;
        for (std::int64_t j = 0; j < cols; ++j) acc[static_cast<std::size_t>(j)] += a * code[j];
      }
      const float row_scale = l.q.scales[static_cast<std::size_t>(o)] * scale;
      for (std::int64_t j = 0; j < cols; ++j) {
        out[static_cast<std::size_t>(o * cols + j)] =
            static_cast<float>(acc[static_cast<std::size_t>(j)]) * row_scale;
      }
    }
  }
  add_bias(l.bias, c.out_c, c.out(0) * c.out(1) * c.out(2), out.data());
  return out;
}

// ---- the library's lowerings at kernel level ---------------------------------

/// Stand-ins for a tier's kernels or the library's lowering, to prove the
/// oracle fails on a wrong one.  Null members mean "the real one".
struct StandIns {
  ScatterFn scatter = nullptr;
  TileFn tile = nullptr;
  bool late_run_im2col = false;
  bool any() const { return scatter || tile || late_run_im2col; }
};

/// A deliberately wrong lowering of a 2-D (depth-1) geometry: each row's run
/// of in-bounds columns starts one output column late (its first element
/// stays zero).
template <typename T>
void late_run_im2col(const T* in, const Conv3dGeom& g, T* cols) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  for (std::int64_t r = 0; r < g.rows(); ++r) {
    const std::int64_t kx = r % g.kw, ky = (r / g.kw) % g.kh,
                       c = r / (g.kw * g.kh);
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      T* dst = cols + (r * oh + oy) * ow;
      const std::int64_t iy = oy * g.sh - g.ph + ky;
      bool first = true;
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const std::int64_t ix = ox * g.sw - g.pw + kx;
        const bool inside = iy >= 0 && iy < g.h && ix >= 0 && ix < g.w;
        dst[ox] = (inside && !first) ? in[(c * g.h + iy) * g.w + ix] : T(0);
        if (inside) first = false;
      }
    }
  }
}

/// The library's lowering of a conv input (vol2col_3d), or the late-run
/// stand-in.
template <typename T>
std::vector<T> lower(const T* x, const Case& c, const StandIns& si) {
  const Conv3dGeom g = c.geom3();
  std::vector<T> col(static_cast<std::size_t>(g.rows() * g.cols()));
  if (c.two_d() && si.late_run_im2col) {
    late_run_im2col(x, g, col.data());
  } else {
    nc::core::vol2col_3d(x, g, col.data());
  }
  return col;
}

/// Max |x| over the voxels some window covers, by brute force, through
/// `ker.max_abs`.
float covered_max_abs(const float* x, const Case& c, const Kernels& ker) {
  const Conv3dGeom g = c.geom3();
  std::vector<char> hit(static_cast<std::size_t>(c.in_numel()), 0);
  for_each_tap(g, [&](std::int64_t, std::int64_t, std::int64_t v) {
    hit[static_cast<std::size_t>(v)] = 1;
  });
  std::vector<float> covered;
  for (std::size_t v = 0; v < hit.size(); ++v) {
    if (hit[v]) covered.push_back(x[v]);
  }
  return ker.max_abs(covered.data(), static_cast<std::int64_t>(covered.size()));
}

/// The dense lowering with `ker`'s kernels: binary16 input, the library's
/// vol2col, one tile_hh over the whole matrix (hgemm's tiling gives each
/// element the same sum); or int8 codes of the input (scale from the covered
/// max), lowered, then qgemm.  Transposed convs: one tile_hh, then the
/// library's col2vol_3d.  Bias last.
std::vector<float> dense_lowering(const float* x, const Case& c, const Layer& l,
                                  Mode mode, const Kernels& ker,
                                  const StandIns& si) {
  const Conv3dGeom g = c.geom3();
  const std::int64_t rows = g.rows();
  const TileFn tile = si.tile ? si.tile : ker.tile_hh;
  std::vector<float> out(static_cast<std::size_t>(c.out_numel()), 0.f);
  if (c.transposed()) {
    const std::int64_t cols = c.dim[0] * c.dim[1] * c.dim[2];
    std::vector<half> xh(static_cast<std::size_t>(c.in_numel()));
    nc::util::float_to_half_sat_n(x, xh.data(), c.in_numel());
    std::vector<float> gcol(static_cast<std::size_t>(rows * cols), 0.f);
    tile(0, rows, 0, cols, c.in_c, l.a_half.data(), c.in_c, xh.data(), cols,
         gcol.data(), cols);
    nc::core::col2vol_3d(gcol.data(), g, out.data());
  } else if (mode == Mode::kEvalHalf) {
    std::vector<half> xh(static_cast<std::size_t>(c.in_numel()));
    nc::util::float_to_half_sat_n(x, xh.data(), c.in_numel());
    const std::vector<half> col = lower(xh.data(), c, si);
    tile(0, c.out_c, 0, g.cols(), rows, l.a_half.data(), rows, col.data(),
         g.cols(), out.data(), g.cols());
  } else {
    const float scale = ref_scale(covered_max_abs(x, c, ker));
    std::vector<std::int8_t> q(static_cast<std::size_t>(c.in_numel()));
    ker.quantize_scaled(x, c.in_numel(), 1.f / scale, q.data());
    const std::vector<std::int8_t> col = lower(q.data(), c, si);
    ker.qgemm(c.out_c, g.cols(), rows, l.q.values.data(), l.q.scales.data(),
              col.data(), scale, out.data(), g.cols());
  }
  add_bias(l.bias, c.out_c, c.out(0) * c.out(1) * c.out(2), out.data());
  return out;
}

/// The sparse lowering of Conv2d and Conv3d at kernel level: the input
/// rounded as the dense lowering rounds it (binary16, or int8 codes of the
/// covered max's scale), `scatter` into a voxel-major accumulator,
/// transpose, scale, bias.
std::vector<float> sparse_lowering(const float* x, const Case& c, const Layer& l,
                                   Mode mode, const Kernels& ker,
                                   ScatterFn scatter) {
  const Conv3dGeom g = c.geom3();
  const std::int64_t rows = g.rows(), cols = g.cols(), numel = c.in_numel();
  const std::int64_t out_c = c.out_c;
  const bool int8 = mode == Mode::kEvalInt8;
  std::vector<float> xs(static_cast<std::size_t>(numel));
  float act_scale = 1.f;
  if (int8) {
    act_scale = ref_scale(covered_max_abs(x, c, ker));
    std::vector<std::int8_t> q(xs.size());
    ker.quantize_scaled(x, numel, 1.f / act_scale, q.data());
    std::copy(q.begin(), q.end(), xs.begin());
  } else {
    xs = rounded_to_half(x, numel);
  }
  // The weight as (rows, out_c).
  std::vector<float> slab(static_cast<std::size_t>(rows * out_c));
  for (std::int64_t o = 0; o < out_c; ++o) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const auto i = static_cast<std::size_t>(o * rows + r);
      slab[static_cast<std::size_t>(r * out_c + o)] =
          int8 ? static_cast<float>(l.q.values[i])
               : static_cast<float>(l.a_half[i]);
    }
  }
  std::vector<float> acc(static_cast<std::size_t>(cols * out_c), 0.f);
  scatter(xs.data(), g, out_c, slab.data(), acc.data());
  std::vector<float> out(static_cast<std::size_t>(out_c * cols));
  for (std::int64_t o = 0; o < out_c; ++o) {
    const float scale =
        int8 ? l.q.scales[static_cast<std::size_t>(o)] * act_scale : 1.f;
    for (std::int64_t p = 0; p < cols; ++p) {
      const float v = acc[static_cast<std::size_t>(p * out_c + o)];
      out[static_cast<std::size_t>(o * cols + p)] = int8 ? v * scale : v;
    }
  }
  add_bias(l.bias, out_c, cols, out.data());
  return out;
}

/// Whether the int8 sparse lowering may run: its fp32 sums of int8 products
/// must stay exact integers.
bool int8_sparse_applies(const Case& c) {
  return c.geom3().rows() * 127 * 127 < (std::int64_t{1} << 24);
}

// ---- stand-ins ----------------------------------------------------------------

/// A deliberately wrong scatter: the scalar kernel's products and sums, over
/// a brute-force tap search, with voxels visited in the loop order `perm`
/// (perm[i] is the coordinate of (c, z, y, x) the i-th loop walks, outermost
/// first) and every term added `dz` output depths away from its own output
/// (terms moved outside the output are dropped).
std::int64_t scatter_standin(const float* x, const Conv3dGeom& g,
                             std::int64_t out_c, const float* slab, float* acc,
                             const int (&perm)[4], std::int64_t dz) {
  const std::int64_t extent[4] = {g.c, g.d, g.h, g.w};
  const std::int64_t od = g.out_d(), oh = g.out_h(), ow = g.out_w();
  std::int64_t at[4] = {0, 0, 0, 0}, taps = 0;
  auto visit = [&] {
    const std::int64_t c = at[0], iz = at[1], iy = at[2], ix = at[3];
    const float v = x[((c * g.d + iz) * g.h + iy) * g.w + ix];
    if (v == 0.f) return;
    for (std::int64_t kz = 0; kz < g.kd; ++kz) {
      const std::int64_t tz = iz + g.pd - kz;
      if (tz < 0 || tz % g.sd != 0 || tz / g.sd >= od) continue;
      const std::int64_t oz = tz / g.sd + dz;
      for (std::int64_t ky = 0; ky < g.kh; ++ky) {
        const std::int64_t ty = iy + g.ph - ky;
        if (ty < 0 || ty % g.sh != 0 || ty / g.sh >= oh) continue;
        for (std::int64_t kx = 0; kx < g.kw; ++kx) {
          const std::int64_t tx = ix + g.pw - kx;
          if (tx < 0 || tx % g.sw != 0 || tx / g.sw >= ow) continue;
          ++taps;
          if (oz >= od) continue;
          const float* w =
              slab + (((c * g.kd + kz) * g.kh + ky) * g.kw + kx) * out_c;
          float* out = acc + ((oz * oh + ty / g.sh) * ow + tx / g.sw) * out_c;
          for (std::int64_t o = 0; o < out_c; ++o) out[o] += v * w[o];
        }
      }
    }
  };
  std::int64_t& i0 = at[perm[0]];
  std::int64_t& i1 = at[perm[1]];
  std::int64_t& i2 = at[perm[2]];
  std::int64_t& i3 = at[perm[3]];
  for (i0 = 0; i0 < extent[perm[0]]; ++i0)
    for (i1 = 0; i1 < extent[perm[1]]; ++i1)
      for (i2 = 0; i2 < extent[perm[2]]; ++i2)
        for (i3 = 0; i3 < extent[perm[3]]; ++i3) visit();
  return taps;
}

/// Voxels in (z, y, x, c) order: for a 2-D (depth-1) case, (y, x, c), so an
/// output sums its terms out of channel order.
std::int64_t scatter_yxc(const float* x, const Conv3dGeom& g,
                         std::int64_t out_c, const float* slab, float* acc) {
  return scatter_standin(x, g, out_c, slab, acc, {1, 2, 3, 0}, 0);
}

/// Voxels in (c, y, x, z) order: an output sums its depth taps last, out of
/// vol2col row order.
std::int64_t scatter_cyxz(const float* x, const Conv3dGeom& g,
                          std::int64_t out_c, const float* slab, float* acc) {
  return scatter_standin(x, g, out_c, slab, acc, {0, 2, 3, 1}, 0);
}

/// The right visit order, but every depth tap lands one output depth late.
std::int64_t scatter_depth_off_by_one(const float* x, const Conv3dGeom& g,
                                      std::int64_t out_c, const float* slab,
                                      float* acc) {
  return scatter_standin(x, g, out_c, slab, acc, {0, 1, 2, 3}, 1);
}

/// A deliberately wrong tile: right products, k summed in descending order.
void tile_descending_k(std::int64_t i0, std::int64_t i1, std::int64_t j0,
                       std::int64_t j1, std::int64_t k, const half* a,
                       std::int64_t lda, const half* b, std::int64_t ldb,
                       float* c, std::int64_t ldc) {
  for (std::int64_t i = i0; i < i1; ++i) {
    for (std::int64_t j = j0; j < j1; ++j) {
      float acc = 0.f;
      for (std::int64_t kk = k - 1; kk >= 0; --kk) {
        acc += static_cast<float>(a[i * lda + kk]) *
               static_cast<float>(b[kk * ldb + j]);
      }
      c[i * ldc + j] = acc;
    }
  }
}

// ---- the seeded loop -----------------------------------------------------------

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (nc::core::simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

struct Stats {
  std::int64_t cases = 0;
  std::int64_t compared = 0;           ///< output floats compared
  std::int64_t differing[2] = {0, 0};  ///< by mode: fp16, int8
  std::int64_t sparse_samples[2] = {0, 0};  ///< layer samples under the gate
  std::int64_t dense_samples[2] = {0, 0};
  int reported = 0;
};

/// Count (and report the first few of) the floats whose bits differ.
void compare(const std::vector<float>& got, const std::vector<float>& want,
             const Case& c, std::int64_t index, const std::string& what, int m,
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
                    << "), reference " << want[i] << " (0x" << b << ")"
                    << std::dec;
    }
  }
  st.compared += static_cast<std::int64_t>(want.size());
  st.differing[m] += diff;
}

/// Run `cases` seeded cases of `kind`: kernel level on every tier, then
/// layer level.  With stand-ins, only the scalar tier's kernel level runs.
Stats run_oracle(Kind kind, std::uint64_t seed, std::int64_t cases,
                 const StandIns& si, bool expect_equal) {
  static constexpr Mode kModes[] = {Mode::kEvalHalf, Mode::kEvalInt8};
  const std::vector<Isa> isas =
      si.any() ? std::vector<Isa>{Isa::kScalar} : supported_isas();
  Prng rng(seed);
  Stats st;
  for (std::int64_t index = 0; index < cases; ++index) {
    const Case c = draw_case(rng, kind);
    const std::int64_t numel = c.in_numel(), out_numel = c.out_numel();
    const Layer l = make_layer(rng, c);
    std::vector<std::int64_t> shape = {c.n, c.in_c};
    for (int a = c.two_d() ? 1 : 0; a < 3; ++a) shape.push_back(c.dim[a]);
    Tensor x(shape);
    for (std::int64_t s = 0; s < c.n; ++s) {
      fill_sample(rng, c, c.density[s], x.data() + s * numel, numel);
    }

    for (int m = 0; m < (c.transposed() ? 1 : 2); ++m) {
      const Mode mode = kModes[m];
      const bool sparse = !c.transposed() &&
                          (mode == Mode::kEvalHalf || int8_sparse_applies(c));
      std::vector<std::vector<float>> want;
      for (std::int64_t s = 0; s < c.n; ++s) {
        const float* xs = x.data() + s * numel;
        want.push_back(reference(xs, c, l, mode));
        for (Isa isa : isas) {
          const Kernels& ker = nc::core::simd::kernels_for(isa);
          const std::string tier = nc::core::simd::isa_name(isa);
          if (!si.scatter) {
            compare(dense_lowering(xs, c, l, mode, ker, si), want.back(), c,
                    index, "dense/" + tier, m, st, expect_equal);
          }
          if (sparse && (si.scatter || !si.any())) {
            compare(sparse_lowering(xs, c, l, mode, ker,
                                    si.scatter ? si.scatter : ker.scatter_conv),
                    want.back(), c, index, "sparse/" + tier, m, st,
                    expect_equal);
          }
        }
      }
      if (si.any()) continue;
      const Tensor got = l.layer->forward(x, mode);
      for (std::int64_t s = 0; s < c.n; ++s) {
        const std::vector<float> sample(got.data() + s * out_numel,
                                        got.data() + (s + 1) * out_numel);
        compare(sample, want[static_cast<std::size_t>(s)], c, index,
                "layer/active", m, st, expect_equal);
        if (c.transposed()) continue;
        const double limit = mode == Mode::kEvalHalf
                                 ? nc::core::kSparseMaxDensityHalf
                                 : nc::core::kSparseMaxDensityInt8;
        const float* xs = x.data() + s * numel;
        const auto nnz =
            std::count_if(xs, xs + numel, [](float v) { return v != 0.f; });
        const bool gated = sparse && static_cast<double>(nnz) <=
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

void print_summary(const char* what, const Stats& st) {
  std::printf("conv oracle (%s): %lld cases, %lld outputs compared on %zu "
              "tier(s) (active: %s); differing bits: fp16 %lld, int8 %lld",
              what, static_cast<long long>(st.cases),
              static_cast<long long>(st.compared), supported_isas().size(),
              nc::core::simd::isa_name(nc::core::simd::active_isa()),
              static_cast<long long>(st.differing[0]),
              static_cast<long long>(st.differing[1]));
  if (st.sparse_samples[0] + st.dense_samples[0] > 0) {
    std::printf("; layer samples sparse/dense: fp16 %lld/%lld, int8 %lld/%lld",
                static_cast<long long>(st.sparse_samples[0]),
                static_cast<long long>(st.dense_samples[0]),
                static_cast<long long>(st.sparse_samples[1]),
                static_cast<long long>(st.dense_samples[1]));
  }
  std::printf("\n");
}

TEST(ConvOracle, EvalConv2dBitExactOnEveryTier) {
  const Stats st = run_oracle(Kind::kConv2d, 20260, 8000, {}, true);
  print_summary("conv2d", st);
  EXPECT_EQ(st.cases, 8000);
  EXPECT_EQ(st.differing[0], 0);
  EXPECT_EQ(st.differing[1], 0);
  // The draw reaches both lowerings of the layer in both modes.
  for (int m = 0; m < 2; ++m) {
    EXPECT_GT(st.sparse_samples[m], 1000) << "mode " << m;
    EXPECT_GT(st.dense_samples[m], 1000) << "mode " << m;
  }
}

TEST(ConvOracle, EvalConv3dBitExactOnEveryTier) {
  const Stats st = run_oracle(Kind::kConv3d, 20262, 2500, {}, true);
  print_summary("conv3d", st);
  EXPECT_EQ(st.cases, 2500);
  EXPECT_EQ(st.differing[0], 0);
  EXPECT_EQ(st.differing[1], 0);
  // The draw reaches both lowerings of the layer in both modes.
  for (int m = 0; m < 2; ++m) {
    EXPECT_GT(st.sparse_samples[m], 2000) << "mode " << m;
    EXPECT_GT(st.dense_samples[m], 400) << "mode " << m;
  }
}

TEST(ConvOracle, EvalConvTransposeBitExactOnEveryTier) {
  const Stats st2 = run_oracle(Kind::kDeconv2d, 20263, 1500, {}, true);
  print_summary("deconv2d", st2);
  const Stats st3 = run_oracle(Kind::kDeconv3d, 20264, 1200, {}, true);
  print_summary("deconv3d", st3);
  EXPECT_EQ(st2.cases, 1500);
  EXPECT_EQ(st3.cases, 1200);
  EXPECT_EQ(st2.differing[0], 0);
  EXPECT_EQ(st3.differing[0], 0);
}

TEST(ConvOracle, ReorderedScatterIsCaught) {
  // fp16 sums round at every step, so visiting voxels in (y, x, c) order
  // changes output bits.  int8 sums are exact integers below 2^24, so the
  // same reordering cannot change one: that exactness is why one fp32
  // scatter serves both modes.
  StandIns si;
  si.scatter = &scatter_yxc;
  const Stats st = run_oracle(Kind::kConv2d, 20261, 500, si, false);
  EXPECT_GT(st.differing[0], 0);
  EXPECT_EQ(st.differing[1], 0);
}

TEST(ConvOracle, DepthReorderedScatterIsCaught) {
  // A 3-D scatter that visits voxels in (c, y, x, z) order sums an output's
  // depth taps out of (c, kz, ky, kx) order: fp16 bits change, int8 integer
  // sums cannot.
  StandIns si;
  si.scatter = &scatter_cyxz;
  const Stats st = run_oracle(Kind::kConv3d, 20268, 500, si, false);
  EXPECT_GT(st.differing[0], 0);
  EXPECT_EQ(st.differing[1], 0);
}

TEST(ConvOracle, DepthTapOffByOneScatterIsCaught) {
  // Terms added one output depth late change outputs in both modes.
  StandIns si;
  si.scatter = &scatter_depth_off_by_one;
  const Stats st = run_oracle(Kind::kConv3d, 20269, 300, si, false);
  EXPECT_GT(st.differing[0], 0);
  EXPECT_GT(st.differing[1], 0);
}

TEST(ConvOracle, DescendingTileIsCaught) {
  // The same products summed from the other end round differently; int8
  // never reaches tile_hh.
  StandIns si;
  si.tile = &tile_descending_k;
  const Stats st2 = run_oracle(Kind::kConv2d, 20265, 300, si, false);
  const Stats st3 = run_oracle(Kind::kDeconv3d, 20266, 200, si, false);
  EXPECT_GT(st2.differing[0], 0);
  EXPECT_EQ(st2.differing[1], 0);
  EXPECT_GT(st3.differing[0], 0);
}

TEST(ConvOracle, LateRunIm2colIsCaught) {
  // A dropped input voxel changes outputs in both modes.
  StandIns si;
  si.late_run_im2col = true;
  const Stats st = run_oracle(Kind::kConv2d, 20267, 300, si, false);
  EXPECT_GT(st.differing[0], 0);
  EXPECT_GT(st.differing[1], 0);
}

}  // namespace
