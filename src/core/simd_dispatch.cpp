#include "core/simd_dispatch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "core/im2col.hpp"
#include "core/simd_qpack.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace nc::core::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels.  These define the semantics every vector ISA is
// tested against; they are also the only kernels on non-x86 targets and
// under NC_SIMD=scalar.
// ---------------------------------------------------------------------------

void qgemm_scalar(std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, const float* a_scales,
                  const std::int8_t* b, float b_scale, float* c,
                  std::int64_t ldc) {
  // i-k-j with an int32 accumulator panel per row; the widening int8
  // multiply vectorizes under -O3.  A per-row int32 scratch keeps the
  // accumulation exact (int8*int8 sums stay well inside int32 for the
  // K values used by BCAE encoders).
  constexpr std::int64_t kNB = 256;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    if (m > 1 && util::may_fork(m * n * k))
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* ai = a + i * k;
    float* ci = c + i * ldc;
    std::int32_t acc[kNB];
    for (std::int64_t j0 = 0; j0 < n; j0 += kNB) {
      const std::int64_t j1 = std::min(n, j0 + kNB);
      const std::int64_t width = j1 - j0;
      std::fill(acc, acc + width, 0);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const std::int32_t av = ai[kk];
        if (av == 0) continue;
        const std::int8_t* bk = b + kk * n + j0;
#ifdef _OPENMP
#pragma omp simd
#endif
        for (std::int64_t j = 0; j < width; ++j) {
          acc[j] += av * static_cast<std::int32_t>(bk[j]);
        }
      }
      const float scale = a_scales[i] * b_scale;
      for (std::int64_t j = 0; j < width; ++j) {
        ci[j0 + j] = static_cast<float>(acc[j]) * scale;
      }
    }
  }
}

float max_abs_scalar(const float* x, std::int64_t n) {
  float max_abs = 0.f;
  for (std::int64_t i = 0; i < n; ++i) {
    max_abs = std::max(max_abs, std::abs(x[i]));
  }
  return max_abs;
}

void quantize_scaled_scalar(const float* x, std::int64_t n, float inv_scale,
                            std::int8_t* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    // Clamp-then-round in round-to-nearest-even, matching VCVTPS2DQ on the
    // vector paths bit-for-bit (std::nearbyintf honours the current FP
    // rounding mode, which is round-to-nearest-even by default; nothing in
    // this library changes it).
    const float v = std::clamp(x[i] * inv_scale, -127.f, 127.f);
    out[i] = static_cast<std::int8_t>(
        static_cast<std::int32_t>(std::nearbyintf(v)));
  }
}

void tile_hh_scalar(std::int64_t i0, std::int64_t i1, std::int64_t j0,
                    std::int64_t j1, std::int64_t k, const util::half* a,
                    std::int64_t lda, const util::half* b, std::int64_t ldb,
                    float* c, std::int64_t ldc) {
  // Widen A once per call and each B row once per column block, not once
  // per product: converting binary16 in the inner loop cost more than the
  // arithmetic.  The block keeps its rows of C in cache while k runs.  Each
  // C element still sums from +0 in ascending kk and skips zero A entries.
  constexpr std::int64_t kColBlock = 256;
  const std::int64_t m = i1 - i0;
  std::vector<float>& aw = detail::tile_a_scratch();
  aw.resize(static_cast<std::size_t>(m * k));
  for (std::int64_t i = 0; i < m; ++i) {
    util::half_to_float_n(a + (i0 + i) * lda, aw.data() + i * k, k);
  }
  float brow[kColBlock];
  for (std::int64_t jb = j0; jb < j1; jb += kColBlock) {
    const std::int64_t width = std::min(kColBlock, j1 - jb);
    for (std::int64_t i = i0; i < i1; ++i) {
      std::fill(c + i * ldc + jb, c + i * ldc + jb + width, 0.f);
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      util::half_to_float_n(b + kk * ldb + jb, brow, width);
      for (std::int64_t i = 0; i < m; ++i) {
        const float av = aw[static_cast<std::size_t>(i * k + kk)];
        if (av == 0.f) continue;
        float* ci = c + (i0 + i) * ldc + jb;
        for (std::int64_t j = 0; j < width; ++j) ci[j] += av * brow[j];
      }
    }
  }
}

std::int64_t scatter_conv_scalar(const float* x, const Conv3dGeom& g,
                                 std::int64_t out_c, const float* slab,
                                 float* acc) {
  std::vector<detail::AxisTaps> buf;
  const detail::VolumeTaps t = detail::volume_taps(g, buf);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::int64_t taps = 0;
  for (std::int64_t c = 0; c < g.c; ++c) {
    for (std::int64_t iz = 0; iz < g.d; ++iz) {
      const detail::AxisTaps tz = t.z[iz];
      for (std::int64_t iy = 0; iy < g.h; ++iy) {
        const detail::AxisTaps ty = t.y[iy];
        if (tz.count == 0 || ty.count == 0) continue;
        const float* row = x + ((c * g.d + iz) * g.h + iy) * g.w;
        for (std::int64_t ix = 0; ix < g.w; ++ix) {
          const float v = row[ix];
          if (v == 0.f) continue;
          const detail::AxisTaps tx = t.x[ix];
          for (std::int64_t a = 0; a < tz.count; ++a) {
            const std::int64_t kz = tz.first + a * g.sd, oz = tz.out - a;
            for (std::int64_t b = 0; b < ty.count; ++b) {
              const std::int64_t ky = ty.first + b * g.sh, oy = ty.out - b;
              for (std::int64_t e = 0; e < tx.count; ++e) {
                const std::int64_t kx = tx.first + e * g.sw, ox = tx.out - e;
                const float* w =
                    slab + (((c * g.kd + kz) * g.kh + ky) * g.kw + kx) * out_c;
                float* out = acc + ((oz * oh + oy) * ow + ox) * out_c;
                for (std::int64_t o = 0; o < out_c; ++o) out[o] += v * w[o];
              }
            }
          }
          taps += tz.count * ty.count * tx.count;
        }
      }
    }
  }
  return taps;
}

// ---------------------------------------------------------------------------
// CPUID feature probe.  __builtin_cpu_supports requires string literals and
// only exists on x86 gcc/clang; other targets run scalar.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) || defined(__i386__)
bool cpu_supports_avx2_tier() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
}
bool cpu_supports_avx512_tier() {
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vnni");
}
#else
bool cpu_supports_avx2_tier() { return false; }
bool cpu_supports_avx512_tier() { return false; }
#endif

/// taps[i] for every input index i < n of an axis with kernel k, stride s,
/// zero padding p and out_n outputs.
void axis_taps(std::int64_t n, std::int64_t k, std::int64_t s, std::int64_t p,
               std::int64_t out_n, detail::AxisTaps* taps) {
  for (std::int64_t i = 0; i < n; ++i) {
    // Tap kk reaches output (i + p - kk) / s when that divides exactly and
    // lies in [0, out_n).
    const std::int64_t t = i + p;
    const std::int64_t lo = std::max<std::int64_t>(0, t - (out_n - 1) * s);
    const std::int64_t hi = std::min(k - 1, t);
    detail::AxisTaps& a = taps[i];
    a.first = lo + (t - lo) % s;
    a.count = (out_n > 0 && a.first <= hi) ? (hi - a.first) / s + 1 : 0;
    a.out = (t - a.first) / s;
  }
}

/// Overlay non-null entries of `over` onto `base`.
Kernels merge(Kernels base, const Kernels& over) {
  if (over.qgemm) base.qgemm = over.qgemm;
  if (over.max_abs) base.max_abs = over.max_abs;
  if (over.quantize_scaled) base.quantize_scaled = over.quantize_scaled;
  if (over.tile_hh) base.tile_hh = over.tile_hh;
  if (over.scatter_conv) base.scatter_conv = over.scatter_conv;
  return base;
}

}  // namespace

namespace detail {

Kernels scalar_kernels() {
  Kernels t;
  t.qgemm = &qgemm_scalar;
  t.max_abs = &max_abs_scalar;
  t.quantize_scaled = &quantize_scaled_scalar;
  t.tile_hh = &tile_hh_scalar;
  t.scatter_conv = &scatter_conv_scalar;
  return t;
}

VolumeTaps volume_taps(const Conv3dGeom& g, std::vector<AxisTaps>& buf) {
  buf.resize(static_cast<std::size_t>(g.d + g.h + g.w));
  AxisTaps* z = buf.data();
  AxisTaps* y = z + g.d;
  AxisTaps* x = y + g.h;
  axis_taps(g.d, g.kd, g.sd, g.pd, g.out_d(), z);
  axis_taps(g.h, g.kh, g.sh, g.ph, g.out_h(), y);
  axis_taps(g.w, g.kw, g.sw, g.pw, g.out_w(), x);
  return {z, y, x};
}

// -- packed-B panel layout (shared by the AVX2 and AVX-512 kernels) ---------

std::int64_t packed_b_bytes(std::int64_t k, std::int64_t n) {
  const std::int64_t kp = (k + kQQuadK - 1) / kQQuadK * kQQuadK;
  const std::int64_t tiles = (n + kQTileJ - 1) / kQTileJ;
  return tiles * kp * kQTileJ;
}

void pack_b_quad16(const std::int8_t* b, std::int64_t k, std::int64_t n,
                   std::int8_t* packed) {
  const std::int64_t quads = (k + kQQuadK - 1) / kQQuadK;
  const std::int64_t tiles = (n + kQTileJ - 1) / kQTileJ;
  for (std::int64_t t = 0; t < tiles; ++t) {
    const std::int64_t j0 = t * kQTileJ;
    const std::int64_t jw = std::min<std::int64_t>(kQTileJ, n - j0);
    std::int8_t* tile = packed + t * quads * kQQuadK * kQTileJ;
    for (std::int64_t q = 0; q < quads; ++q) {
      std::int8_t* dst = tile + q * kQQuadK * kQTileJ;
      for (std::int64_t r = 0; r < kQQuadK; ++r) {
        const std::int64_t kk = q * kQQuadK + r;
        if (kk >= k) {
          for (std::int64_t j = 0; j < kQTileJ; ++j) dst[j * kQQuadK + r] = 0;
          continue;
        }
        const std::int8_t* src = b + kk * n + j0;
        for (std::int64_t j = 0; j < jw; ++j) dst[j * kQQuadK + r] = src[j];
        for (std::int64_t j = jw; j < kQTileJ; ++j) dst[j * kQQuadK + r] = 0;
      }
    }
  }
}

std::vector<std::int8_t>& qpack_scratch() {
  thread_local std::vector<std::int8_t> buf;
  return buf;
}

std::vector<std::int8_t>& qpad_a_scratch() {
  thread_local std::vector<std::int8_t> buf;
  return buf;
}

std::vector<std::int32_t>& qrow_sum_scratch() {
  thread_local std::vector<std::int32_t> buf;
  return buf;
}

std::vector<float>& tile_a_scratch() {
  thread_local std::vector<float> buf;
  return buf;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatch resolution
// ---------------------------------------------------------------------------

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return detail::avx2_compiled() && cpu_supports_avx2_tier();
    case Isa::kAvx512:
      // The AVX-512 table inherits its non-qgemm entries from AVX2, so the
      // tier requires the AVX2 tier too (true on all real AVX-512 parts).
      return detail::avx512_compiled() && cpu_supports_avx512_tier() &&
             detail::avx2_compiled() && cpu_supports_avx2_tier();
  }
  return false;
}

Isa best_isa() {
  if (isa_supported(Isa::kAvx512)) return Isa::kAvx512;
  if (isa_supported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

Isa resolve_isa(const char* request) {
  const Isa best = best_isa();
  if (request == nullptr) return best;
  const std::string_view req(request);
  if (req.empty() || req == "auto") return best;
  Isa want;
  if (req == "scalar") {
    want = Isa::kScalar;
  } else if (req == "avx2") {
    want = Isa::kAvx2;
  } else if (req == "avx512") {
    want = Isa::kAvx512;
  } else {
    NC_LOG_WARN << "NC_SIMD=" << req
                << " not recognized (scalar|avx2|avx512|auto); using "
                << isa_name(best);
    return best;
  }
  if (isa_supported(want)) return want;
  const Isa got = std::min(best, want);
  NC_LOG_WARN << "NC_SIMD=" << req
              << " not supported on this host/build; using " << isa_name(got);
  return got;
}

Isa active_isa() {
  static const Isa isa = resolve_isa(std::getenv("NC_SIMD"));
  return isa;
}

const Kernels& kernels_for(Isa isa) {
  // Magic statics: each merged table is built once, thread-safely.
  static const Kernels scalar = detail::scalar_kernels();
  static const Kernels avx2 = merge(scalar, detail::avx2_kernels());
  static const Kernels avx512 = merge(avx2, detail::avx512_kernels());
  switch (isa) {
    case Isa::kAvx512:
      if (isa_supported(Isa::kAvx512)) return avx512;
      [[fallthrough]];
    case Isa::kAvx2:
      if (isa_supported(Isa::kAvx2)) return avx2;
      [[fallthrough]];
    case Isa::kScalar:
      break;
  }
  return scalar;
}

const Kernels& kernels() { return kernels_for(active_isa()); }

}  // namespace nc::core::simd
