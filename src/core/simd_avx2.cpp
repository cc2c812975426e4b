/// \file simd_avx2.cpp
/// \brief AVX2 + FMA + F16C kernel tier, compiled with per-file target flags
///        (-mavx2 -mfma -mf16c) and selected at runtime by simd_dispatch.
///
/// int8 GEMM exactness: AVX2's u8*s8 instruction pair (`vpmaddubsw` +
/// `vpmaddwd`) saturates its intermediate i16 pair-sum, so the textbook
/// "bias the activation by +128" trick is NOT exact here (two biased
/// products can reach 2*255*127 = 64770 > 32767).  We use the
/// *sign-transfer* form instead: per byte,
///
///     u = |b|                (unsigned operand, <= 128)
///     s = a * sgn(b)         (vpsignb: negate a where b < 0, zero where b = 0)
///     u * s = a * b          (exactly)
///
/// so every pair-sum is bounded by 2*128*127 = 32512 < 32767 — no
/// saturation for any activation byte (including -128) as long as the
/// weights stay in [-127, 127], which `quantize_rows` guarantees.  The
/// result is bit-identical to the scalar int32 reference; the AVX-512 tier
/// uses the +128-bias form instead (see simd_avx512.cpp) because `vpdpbusd`
/// accumulates straight into i32 without the saturating midpoint.
#include "core/simd_dispatch.hpp"

#if defined(NC_SIMD_BUILD_AVX2) && defined(__AVX2__) && defined(__FMA__) && \
    defined(__F16C__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/im2col.hpp"
#include "core/simd_qpack.hpp"
#include "util/parallel.hpp"

namespace nc::core::simd {
namespace {

using detail::kQQuadK;
using detail::kQTileJ;

/// Fill C's valid region with 0.f * scale per row (the k = 0 degenerate
/// case, kept expression-identical to the scalar kernel).
void fill_k0(std::int64_t m, std::int64_t n, const float* a_scales,
             float b_scale, float* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float v = 0.f * (a_scales[i] * b_scale);
    std::fill(c + i * ldc, c + i * ldc + n, v);
  }
}

/// Scalar pack of one (possibly partial) j-tile — mirrors the portable
/// detail::pack_b_quad16 per-tile loop; used for the edges the vector pack
/// below cannot cover.
void pack_tile_scalar(const std::int8_t* b, std::int64_t k, std::int64_t n,
                      std::int64_t j0, std::int8_t* tile) {
  const std::int64_t quads = (k + kQQuadK - 1) / kQQuadK;
  const std::int64_t jw = std::min<std::int64_t>(kQTileJ, n - j0);
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

/// Vectorized B pack: one SSE 4x16 byte interleave per 64-byte quad-row.
/// The scalar pack was costing more than the GEMM it feeds at small-m
/// shapes (m = 2 stage-1 downsample: the O(k*n) pack vs O(2*n*k) MACs), so
/// it has to run at memory speed.  Bytewise identical to the portable
/// packer; duplicated in simd_avx512.cpp because intrinsics must stay
/// inside the per-ISA TUs (tools/lint/check_headers.py enforces this).
void pack_b_panel(const std::int8_t* b, std::int64_t k, std::int64_t n,
                  std::int8_t* packed) {
  const std::int64_t full_quads = k / kQQuadK;
  const std::int64_t full_tiles = n / kQTileJ;
  const std::int64_t quads = (k + kQQuadK - 1) / kQQuadK;
  const std::int64_t tile_bytes = quads * kQQuadK * kQTileJ;
  for (std::int64_t t = 0; t < full_tiles; ++t) {
    const std::int8_t* src = b + t * kQTileJ;
    std::int8_t* dst = packed + t * tile_bytes;
    for (std::int64_t q = 0; q < full_quads; ++q, src += 4 * n, dst += 64) {
      const __m128i r0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
      const __m128i r1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + n));
      const __m128i r2 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 2 * n));
      const __m128i r3 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 3 * n));
      // 4x16 interleave: out byte [j*4 + r] = row_r[j].
      const __m128i t0 = _mm_unpacklo_epi8(r0, r1);
      const __m128i t1 = _mm_unpackhi_epi8(r0, r1);
      const __m128i t2 = _mm_unpacklo_epi8(r2, r3);
      const __m128i t3 = _mm_unpackhi_epi8(r2, r3);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                       _mm_unpacklo_epi16(t0, t2));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                       _mm_unpackhi_epi16(t0, t2));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32),
                       _mm_unpacklo_epi16(t1, t3));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48),
                       _mm_unpackhi_epi16(t1, t3));
    }
    if (full_quads < quads) {  // partial trailing k-quad: scalar + zero pad
      for (std::int64_t r = 0; r < kQQuadK; ++r) {
        const std::int64_t kk = full_quads * kQQuadK + r;
        if (kk >= k) {
          for (std::int64_t j = 0; j < kQTileJ; ++j) dst[j * kQQuadK + r] = 0;
          continue;
        }
        const std::int8_t* row = b + kk * n + t * kQTileJ;
        for (std::int64_t j = 0; j < kQTileJ; ++j) dst[j * kQQuadK + r] = row[j];
      }
    }
  }
  if (full_tiles * kQTileJ < n) {  // partial trailing j-tile
    pack_tile_scalar(b, k, n, full_tiles * kQTileJ,
                     packed + full_tiles * tile_bytes);
  }
}

void qgemm_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t* a, const float* a_scales,
                const std::int8_t* b, float b_scale, float* c,
                std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    fill_k0(m, n, a_scales, b_scale, c, ldc);
    return;
  }
  const std::int64_t quads = (k + kQQuadK - 1) / kQQuadK;
  const std::int64_t kp = quads * kQQuadK;
  const std::int64_t tiles = (n + kQTileJ - 1) / kQTileJ;

  // Packed B panels: built once per call (= once per im2col buffer),
  // amortized over all m weight rows.
  auto& packed = detail::qpack_scratch();
  packed.resize(static_cast<std::size_t>(detail::packed_b_bytes(k, n)));
  pack_b_panel(b, k, n, packed.data());

  // Pad A rows to a whole number of quads so the inner loop can always read
  // aligned 4-byte groups.
  const std::int8_t* a_eff = a;
  std::int64_t lda = k;
  if (kp != k) {
    auto& apad = detail::qpad_a_scratch();
    apad.assign(static_cast<std::size_t>(m * kp), 0);
    for (std::int64_t i = 0; i < m; ++i) {
      std::memcpy(apad.data() + i * kp, a + i * k,
                  static_cast<std::size_t>(k));
    }
    a_eff = apad.data();
    lda = kp;
  }

  const std::int8_t* pk = packed.data();
  const __m256i ones16 = _mm256_set1_epi16(1);
  // Register-block 4 weight rows per pass so each 64-byte packed quad-row is
  // loaded (and |b| computed) once for 4 rows of output instead of once per
  // row.  Each row keeps its own accumulator pair and its own add chain, so
  // the int32 result is identical to the one-row-at-a-time loop.
  constexpr std::int64_t kRowBlk = 4;
  const std::int64_t row_blocks = (m + kRowBlk - 1) / kRowBlk;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    if (row_blocks > 1 && util::may_fork(m * n * k))
#endif
  for (std::int64_t rb = 0; rb < row_blocks; ++rb) {
    const std::int64_t i0 = rb * kRowBlk;
    const std::int64_t rows = std::min<std::int64_t>(kRowBlk, m - i0);
    for (std::int64_t t = 0; t < tiles; ++t) {
      const std::int8_t* blk = pk + t * quads * kQQuadK * kQTileJ;
      __m256i acc0[kRowBlk];  // lanes j0 .. j0+7, one per blocked row
      __m256i acc1[kRowBlk];  // lanes j0+8 .. j0+15
      for (std::int64_t r = 0; r < rows; ++r) {
        acc0[r] = _mm256_setzero_si256();
        acc1[r] = _mm256_setzero_si256();
      }
      for (std::int64_t q = 0; q < quads; ++q) {
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(blk + q * 64));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(blk + q * 64 + 32));
        const __m256i ab0 = _mm256_abs_epi8(b0);
        const __m256i ab1 = _mm256_abs_epi8(b1);
        for (std::int64_t r = 0; r < rows; ++r) {
          std::int32_t aq;
          std::memcpy(&aq, a_eff + (i0 + r) * lda + q * kQQuadK, sizeof(aq));
          if (aq == 0) continue;  // zero weight quad (pruning) contributes 0
          const __m256i av = _mm256_set1_epi32(aq);
          // Sign-transfer: maddubs(|b|, a*sgn(b)) == sum of exact a*b pairs.
          const __m256i p0 =
              _mm256_maddubs_epi16(ab0, _mm256_sign_epi8(av, b0));
          const __m256i p1 =
              _mm256_maddubs_epi16(ab1, _mm256_sign_epi8(av, b1));
          acc0[r] = _mm256_add_epi32(acc0[r], _mm256_madd_epi16(p0, ones16));
          acc1[r] = _mm256_add_epi32(acc1[r], _mm256_madd_epi16(p1, ones16));
        }
      }
      const std::int64_t j0 = t * kQTileJ;
      for (std::int64_t r = 0; r < rows; ++r) {
        const float scale = a_scales[i0 + r] * b_scale;
        float* ci = c + (i0 + r) * ldc;
        const __m256 vscale = _mm256_set1_ps(scale);
        const __m256 f0 = _mm256_mul_ps(_mm256_cvtepi32_ps(acc0[r]), vscale);
        const __m256 f1 = _mm256_mul_ps(_mm256_cvtepi32_ps(acc1[r]), vscale);
        if (j0 + kQTileJ <= n) {
          _mm256_storeu_ps(ci + j0, f0);
          _mm256_storeu_ps(ci + j0 + 8, f1);
        } else {
          alignas(32) float tmp[kQTileJ];
          _mm256_store_ps(tmp, f0);
          _mm256_store_ps(tmp + 8, f1);
          std::memcpy(ci + j0, tmp,
                      static_cast<std::size_t>(n - j0) * sizeof(float));
        }
      }
    }
  }
}

float max_abs_avx2(const float* x, std::int64_t n) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 vmax = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vmax = _mm256_max_ps(vmax, _mm256_and_ps(_mm256_loadu_ps(x + i), abs_mask));
  }
  const __m128 lo = _mm256_castps256_ps128(vmax);
  const __m128 hi = _mm256_extractf128_ps(vmax, 1);
  __m128 m = _mm_max_ps(lo, hi);
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  float max_abs = _mm_cvtss_f32(m);
  for (; i < n; ++i) max_abs = std::max(max_abs, std::abs(x[i]));
  return max_abs;
}

void quantize_scaled_avx2(const float* x, std::int64_t n, float inv_scale,
                          std::int8_t* out) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 vlo = _mm256_set1_ps(-127.f);
  const __m256 vhi = _mm256_set1_ps(127.f);
  // Dword permutation fixing the 128-bit-lane interleave of the two packs.
  const __m256i fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i q[4];
    for (int g = 0; g < 4; ++g) {
      __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i + 8 * g), vinv);
      v = _mm256_min_ps(vhi, _mm256_max_ps(vlo, v));
      // VCVTPS2DQ rounds to nearest-even — the semantics the scalar
      // reference mirrors with std::nearbyintf.
      q[g] = _mm256_cvtps_epi32(v);
    }
    // i32 -> i16 -> i8; values already in [-127, 127] so the saturating
    // packs narrow losslessly.
    const __m256i p16a = _mm256_packs_epi32(q[0], q[1]);
    const __m256i p16b = _mm256_packs_epi32(q[2], q[3]);
    const __m256i p8 = _mm256_packs_epi16(p16a, p16b);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_permutevar8x32_epi32(p8, fix));
  }
  for (; i < n; ++i) {
    const float v = std::clamp(x[i] * inv_scale, -127.f, 127.f);
    out[i] = static_cast<std::int8_t>(
        static_cast<std::int32_t>(std::nearbyintf(v)));
  }
}

/// One R x W block of C (R <= 6 rows of W / 8 ymm each, 12 accumulators at
/// most, which with the B vectors and the broadcast fits the 16 ymm
/// registers) summed over all of k: every accumulator starts at +0 and
/// takes one FMA per kk in ascending order, so each element gets the scalar
/// tier's sum.  `aw` is the block's first widened A row (row stride k), `b`
/// and `c` point at the block's first column.
template <int R, int W>
void block_hh(std::int64_t k, const float* aw, const util::half* b,
              std::int64_t ldb, float* c, std::int64_t ldc) {
  constexpr int V = W / 8;
  __m256 acc[R][V];
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const util::half* bk = b + kk * ldb;
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm256_cvtph_ps(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bk + 8 * v)));
    }
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(aw + r * k + kk);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) _mm256_storeu_ps(c + r * ldc + 8 * v, acc[r][v]);
  }
}

using BlockHh = void (*)(std::int64_t, const float*, const util::half*,
                         std::int64_t, float*, std::int64_t);

template <int W>
constexpr BlockHh kBlockHh[7] = {nullptr,           &block_hh<1, W>,
                                 &block_hh<2, W>,   &block_hh<3, W>,
                                 &block_hh<4, W>,   &block_hh<5, W>,
                                 &block_hh<6, W>};

/// Register-blocked fp16 tile (contract in simd_dispatch.hpp).  Column
/// blocks of 16 (then one of 8) outside, row blocks of 6 inside, so the B
/// panel of one column block is reused from L1 by every row block; the last
/// columns (fewer than 8) are summed one element at a time, in the same
/// order.
void tile_hh_avx2(std::int64_t i0, std::int64_t i1, std::int64_t j0,
                  std::int64_t j1, std::int64_t k, const util::half* a,
                  std::int64_t lda, const util::half* b, std::int64_t ldb,
                  float* c, std::int64_t ldc) {
  const std::int64_t m = i1 - i0;
  if (m <= 0 || j1 <= j0) return;
  auto& aw = detail::tile_a_scratch();
  aw.resize(static_cast<std::size_t>(m * k));
  for (std::int64_t i = 0; i < m; ++i) {
    util::half_to_float_n(a + (i0 + i) * lda, aw.data() + i * k, k);
  }
  std::int64_t j = j0;
  for (; j + 8 <= j1;) {
    const bool wide = j + 16 <= j1;
    for (std::int64_t i = 0; i < m; i += 6) {
      const auto rows = static_cast<int>(std::min<std::int64_t>(6, m - i));
      const BlockHh block = wide ? kBlockHh<16>[rows] : kBlockHh<8>[rows];
      block(k, aw.data() + i * k, b + j, ldb, c + (i0 + i) * ldc + j, ldc);
    }
    j += wide ? 16 : 8;
  }
  for (; j < j1; ++j) {
    for (std::int64_t i = 0; i < m; ++i) {
      const float* ai = aw.data() + i * k;
      float acc = 0.f;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc = std::fma(ai[kk], static_cast<float>(b[kk * ldb + j]), acc);
      }
      c[(i0 + i) * ldc + j] = acc;
    }
  }
}

/// Sparse conv scatter (contract in simd_dispatch.hpp): finds the nonzeros
/// of each input row eight at a time with a compare mask, in ascending x,
/// and adds each voxel's slab rows eight output channels per FMA.  The
/// products are exact, so the FMA (and any contraction of the scalar tail)
/// rounds exactly like the scalar tier's multiply-then-add.
std::int64_t scatter_conv_avx2(const float* x, const Conv3dGeom& g,
                               std::int64_t out_c, const float* slab,
                               float* acc) {
  std::vector<detail::AxisTaps> buf;
  const detail::VolumeTaps t = detail::volume_taps(g, buf);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t full = out_c / 8 * 8;
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t taps = 0;

  auto scatter = [&](std::int64_t c, const detail::AxisTaps& tz,
                     const detail::AxisTaps& ty, std::int64_t ix, float v) {
    const detail::AxisTaps tx = t.x[ix];
    const __m256 vv = _mm256_set1_ps(v);
    for (std::int64_t a = 0; a < tz.count; ++a) {
      const std::int64_t kz = tz.first + a * g.sd, oz = tz.out - a;
      for (std::int64_t b = 0; b < ty.count; ++b) {
        const std::int64_t ky = ty.first + b * g.sh, oy = ty.out - b;
        for (std::int64_t e = 0; e < tx.count; ++e) {
          const std::int64_t kx = tx.first + e * g.sw, ox = tx.out - e;
          const float* w =
              slab + (((c * g.kd + kz) * g.kh + ky) * g.kw + kx) * out_c;
          float* out = acc + ((oz * oh + oy) * ow + ox) * out_c;
          std::int64_t o = 0;
          for (; o < full; o += 8) {
            _mm256_storeu_ps(out + o,
                             _mm256_fmadd_ps(vv, _mm256_loadu_ps(w + o),
                                             _mm256_loadu_ps(out + o)));
          }
          for (; o < out_c; ++o) out[o] += v * w[o];
        }
      }
    }
    taps += tz.count * ty.count * tx.count;
  };

  for (std::int64_t c = 0; c < g.c; ++c) {
    for (std::int64_t iz = 0; iz < g.d; ++iz) {
      const detail::AxisTaps tz = t.z[iz];
      for (std::int64_t iy = 0; iy < g.h; ++iy) {
        const detail::AxisTaps ty = t.y[iy];
        if (tz.count == 0 || ty.count == 0) continue;
        const float* row = x + ((c * g.d + iz) * g.h + iy) * g.w;
        std::int64_t ix = 0;
        for (; ix + 8 <= g.w; ix += 8) {
          // NEQ_UQ: a NaN counts as nonzero, as `v == 0.f` does in scalar.
          auto nz = static_cast<unsigned>(_mm256_movemask_ps(
              _mm256_cmp_ps(_mm256_loadu_ps(row + ix), zero, _CMP_NEQ_UQ)));
          while (nz != 0) {
            const std::int64_t at = ix + __builtin_ctz(nz);
            nz &= nz - 1;
            scatter(c, tz, ty, at, row[at]);
          }
        }
        for (; ix < g.w; ++ix) {
          if (row[ix] != 0.f) scatter(c, tz, ty, ix, row[ix]);
        }
      }
    }
  }
  return taps;
}

}  // namespace

namespace detail {

Kernels avx2_kernels() {
  Kernels t;
  t.qgemm = &qgemm_avx2;
  t.max_abs = &max_abs_avx2;
  t.quantize_scaled = &quantize_scaled_avx2;
  t.tile_hh = &tile_hh_avx2;
  t.scatter_conv = &scatter_conv_avx2;
  return t;
}

bool avx2_compiled() { return true; }

}  // namespace detail
}  // namespace nc::core::simd

#else  // TU built without AVX2 target support (non-x86 or old compiler)

namespace nc::core::simd::detail {

Kernels avx2_kernels() { return {}; }
bool avx2_compiled() { return false; }

}  // namespace nc::core::simd::detail

#endif
