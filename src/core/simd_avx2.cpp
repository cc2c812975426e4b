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

/// Pack the panel at columns [j0, j0 + 16) of B (row kk at b + b_rows[kk])
/// into `panel`: one SSE 4x16 byte interleave per 64-byte quad-row while
/// all 16 columns and 4 rows exist, the portable packer for the rest.  The
/// scalar pack used to cost more than the GEMM it feeds at small-m shapes
/// (m = 2 stage-1 downsample: the O(k*n) pack vs O(2*n*k) MACs), so it has
/// to run at memory speed.  Bytewise identical to
/// `detail::pack_panel_tail`; duplicated in simd_avx512.cpp because
/// intrinsics must stay inside the per-ISA TUs
/// (tools/lint/check_headers.py enforces this).
void pack_panel(const std::int8_t* b, const std::int64_t* b_rows,
                std::int64_t k, std::int64_t n, std::int64_t j0,
                std::int8_t* panel) {
  const std::int64_t full_quads = j0 + kQTileJ <= n ? k / kQQuadK : 0;
  const std::int64_t* rows = b_rows;
  std::int8_t* dst = panel;
  for (std::int64_t q = 0; q < full_quads; ++q, rows += 4, dst += 64) {
    const __m128i r0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + rows[0] + j0));
    const __m128i r1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + rows[1] + j0));
    const __m128i r2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + rows[2] + j0));
    const __m128i r3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + rows[3] + j0));
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
  detail::pack_panel_tail(b, b_rows, k, n, j0, full_quads, panel);
}

/// int8 GEMM (contract in simd_dispatch.hpp).  Panels of 16 columns
/// outside, each packed just before use into a thread-local buffer that
/// stays in L1, row blocks of 4 inside.
void qgemm_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t* a, const float* a_scales,
                const std::int8_t* b, const std::int64_t* b_rows,
                float b_scale, float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    fill_k0(m, n, a_scales, b_scale, c, ldc);
    return;
  }
  const std::int64_t quads = (k + kQQuadK - 1) / kQQuadK;
  const std::int64_t kp = quads * kQQuadK;
  const std::int64_t tiles = (n + kQTileJ - 1) / kQTileJ;

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

  const __m256i ones16 = _mm256_set1_epi16(1);
  // Register-block 4 weight rows per pass so each 64-byte packed quad-row is
  // loaded (and |b| computed) once for 4 rows of output instead of once per
  // row.  Each row keeps its own accumulator pair and its own add chain, so
  // the int32 result is identical to the one-row-at-a-time loop.
  constexpr std::int64_t kRowBlk = 4;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    if (tiles > 1 && util::may_fork(m * n * k))
#endif
  for (std::int64_t t = 0; t < tiles; ++t) {
    const std::int64_t j0 = t * kQTileJ;
    auto& panel = detail::qpack_scratch();
    panel.resize(static_cast<std::size_t>(detail::panel_bytes(k)));
    pack_panel(b, b_rows, k, n, j0, panel.data());
    const std::int8_t* blk = panel.data();
    for (std::int64_t i0 = 0; i0 < m; i0 += kRowBlk) {
      const std::int64_t rows = std::min<std::int64_t>(kRowBlk, m - i0);
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
/// and `c` point at the block's first column, B row kk at b + b_rows[kk].
/// A Tail block (W = 8) reads a staged, zero-padded (k x 8) panel instead,
/// row kk at b + 8 * kk, and stores only the columns `live` selects.
template <int R, int W, bool Tail>
void block_hh(std::int64_t k, const float* aw, const util::half* b,
              const std::int64_t* b_rows, float* c, std::int64_t ldc,
              __m256i live) {
  constexpr int V = W / 8;
  __m256 acc[R][V];
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const util::half* bk = Tail ? b + 8 * kk : b + b_rows[kk];
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
    if constexpr (Tail) {
      _mm256_maskstore_ps(c + r * ldc, live, acc[r][0]);
    } else {
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        _mm256_storeu_ps(c + r * ldc + 8 * v, acc[r][v]);
      }
    }
  }
}

using BlockHh = void (*)(std::int64_t, const float*, const util::half*,
                         const std::int64_t*, float*, std::int64_t, __m256i);

template <int W, bool Tail = false>
constexpr BlockHh kBlockHh[7] = {
    nullptr,                   &block_hh<1, W, Tail>, &block_hh<2, W, Tail>,
    &block_hh<3, W, Tail>,     &block_hh<4, W, Tail>, &block_hh<5, W, Tail>,
    &block_hh<6, W, Tail>};

/// Register-blocked fp16 tile (contract in simd_dispatch.hpp).  Column
/// blocks of 16 (then one of 8) outside, row blocks of 6 inside, so the B
/// panel of one column block is reused from L1 by every row block.  The
/// last columns (fewer than 8; the in-place lowering's padded grids rarely
/// end on a multiple of 8) are copied into a zero-padded 8-column panel and
/// summed by one masked block, in the same order.
void tile_hh_avx2(std::int64_t i0, std::int64_t i1, std::int64_t j0,
                  std::int64_t j1, std::int64_t k, const util::half* a,
                  std::int64_t lda, const util::half* b,
                  const std::int64_t* b_rows, float* c, std::int64_t ldc) {
  const std::int64_t m = i1 - i0;
  if (m <= 0 || j1 <= j0) return;
  auto& aw = detail::tile_a_scratch();
  aw.resize(static_cast<std::size_t>(m * k));
  for (std::int64_t i = 0; i < m; ++i) {
    util::half_to_float_n(a + (i0 + i) * lda, aw.data() + i * k, k);
  }
  const __m256i all = _mm256_set1_epi32(-1);
  std::int64_t j = j0;
  for (; j + 8 <= j1;) {
    const bool wide = j + 16 <= j1;
    for (std::int64_t i = 0; i < m; i += 6) {
      const auto rows = static_cast<int>(std::min<std::int64_t>(6, m - i));
      const BlockHh block = wide ? kBlockHh<16>[rows] : kBlockHh<8>[rows];
      block(k, aw.data() + i * k, b + j, b_rows, c + (i0 + i) * ldc + j, ldc,
            all);
    }
    j += wide ? 16 : 8;
  }
  if (j < j1) {
    const std::int64_t width = j1 - j;
    thread_local std::vector<util::half> panel;
    panel.assign(static_cast<std::size_t>(8 * k), util::half{});
    for (std::int64_t kk = 0; kk < k; ++kk) {
      std::memcpy(panel.data() + 8 * kk, b + b_rows[kk] + j,
                  static_cast<std::size_t>(width) * sizeof(util::half));
    }
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(width)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    for (std::int64_t i = 0; i < m; i += 6) {
      const auto rows = static_cast<int>(std::min<std::int64_t>(6, m - i));
      kBlockHh<8, true>[rows](k, aw.data() + i * k, panel.data(), nullptr,
                              c + (i0 + i) * ldc + j, ldc, live);
    }
  }
}

/// a[o] += v * w[o] for o < n < 8, in pieces of 4, 2 and 1 floats (no
/// masked stores: see simd_avx512.cpp's add_tail).  `vv` holds v in every
/// lane.  The products are exact, so the FMAs round like the scalar tier.
inline void add_tail(__m256 vv, const float* w, float* a, std::int64_t n) {
  const __m128 v4 = _mm256_castps256_ps128(vv);
  if (n & 4) {
    _mm_storeu_ps(a, _mm_fmadd_ps(v4, _mm_loadu_ps(w), _mm_loadu_ps(a)));
    a += 4;
    w += 4;
  }
  if (n & 2) {
    const __m128 w2 = _mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w)));
    const __m128 a2 = _mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(a),
                     _mm_castps_si128(_mm_fmadd_ps(v4, w2, a2)));
    a += 2;
    w += 2;
  }
  if (n & 1) *a = std::fma(_mm_cvtss_f32(v4), *w, *a);
}

/// The scatter's voxel loop at a fixed channel width: `kFull` ymm of 8
/// output channels per tap, then the out_c % 8 others; kFull = -1 reads the
/// width from out_c at run time.  Finds the nonzeros of each input row
/// eight at a time with a compare mask, in ascending x, and walks each
/// voxel's taps with `for_each_tap`.
template <int kFull>
std::int64_t scatter_rows(const float* x, const Conv3dGeom& g,
                          std::int64_t out_c, const float* slab, float* acc,
                          const detail::VolumeTaps& t,
                          const detail::TapSteps& steps) {
  const std::int64_t full = kFull >= 0 ? kFull : out_c / 8;
  const std::int64_t rem = out_c % 8;
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t taps = 0;
  auto scatter = [&](std::int64_t c, const detail::AxisTaps& tz,
                     const detail::AxisTaps& ty, std::int64_t ix, float v) {
    const __m256 vv = _mm256_set1_ps(v);
    taps += detail::for_each_tap(
        slab, acc, c, tz, ty, t.x[ix], steps,
        [vv, full, rem](const float* w, float* a) {
          for (std::int64_t o = 0; o < full; ++o) {
            _mm256_storeu_ps(a + 8 * o,
                             _mm256_fmadd_ps(vv, _mm256_loadu_ps(w + 8 * o),
                                             _mm256_loadu_ps(a + 8 * o)));
          }
          if (rem != 0) add_tail(vv, w + 8 * full, a + 8 * full, rem);
        });
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

/// Sparse conv scatter (contract in simd_dispatch.hpp): picks the channel
/// width once per call, so the tap loops carry no vector-loop count, and
/// adds each voxel's slab rows eight output channels per FMA.  The products
/// are exact, so the FMAs round exactly like the scalar tier's
/// multiply-then-add.
std::int64_t scatter_conv_avx2(const float* x, const Conv3dGeom& g,
                               std::int64_t out_c, const float* slab,
                               float* acc) {
  using Rows = std::int64_t (*)(const float*, const Conv3dGeom&, std::int64_t,
                                const float*, float*, const detail::VolumeTaps&,
                                const detail::TapSteps&);
  // Indexed by out_c / 8: BCAE's 2, 8 and 32 channels and every width below
  // 40.
  static constexpr Rows kRows[5] = {&scatter_rows<0>, &scatter_rows<1>,
                                    &scatter_rows<2>, &scatter_rows<3>,
                                    &scatter_rows<4>};
  thread_local std::vector<detail::AxisTaps> buf;
  const detail::VolumeTaps t = detail::volume_taps(g, buf);
  const detail::TapSteps steps = detail::tap_steps(g, out_c);
  const std::int64_t vecs = out_c / 8;
  const Rows rows = vecs < 5 ? kRows[vecs] : &scatter_rows<-1>;
  return rows(x, g, out_c, slab, acc, t, steps);
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
