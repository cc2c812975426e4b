/// \file simd_avx512.cpp
/// \brief AVX-512 VNNI int8 GEMM tier, compiled with per-file target flags
///        (-mavx512f -mavx512bw -mavx512vnni) and selected at runtime.
///
/// `vpdpbusd` computes a u8 x s8 quad dot-product accumulated directly into
/// i32 lanes — no saturating i16 midpoint — so here the classic "+128 bias"
/// form IS exact: quantized activations b are biased to unsigned u = b + 128
/// (one XOR with 0x80), the weights ride the signed operand unchanged, and
/// the surplus 128 * sum_k a[i,k] is subtracted per output row via a
/// precomputed weight row-sum:
///
///     sum_k (b_k + 128) * a_k  =  sum_k a_k * b_k  +  128 * sum_k a_k
///
/// Every step stays in exact i32 arithmetic, so the result is bit-identical
/// to the scalar reference for the *full* int8 range of both operands.
/// (Contrast with the AVX2 tier, which must use sign-transfer to dodge
/// `vpmaddubsw` saturation — see simd_avx2.cpp.)
///
/// `qgemm`, `tile_hh` and `scatter_conv` are overridden at this tier;
/// max_abs / quantize_scaled are inherited from the AVX2 table, whose
/// 256-bit forms already saturate the load ports at these panel sizes.
#include "core/simd_dispatch.hpp"

#if defined(NC_SIMD_BUILD_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512BW__) && defined(__AVX512VNNI__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/im2col.hpp"
#include "core/simd_qpack.hpp"
#include "util/parallel.hpp"

// GCC's unmasked AVX-512 intrinsics deliberately pass an uninitialized
// passthrough operand (`__Y` in avx512fintrin.h); with -O2 + OpenMP
// outlining GCC 12 reports it as -Wmaybe-uninitialized *inside the system
// header*.  Silence that single diagnostic for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace nc::core::simd {
namespace {

using detail::kQQuadK;
using detail::kQTileJ;

/// Pack the panel at columns [j0, j0 + 16) of B (row kk at b + b_rows[kk])
/// into `panel`: one SSE 4x16 byte interleave per 64-byte quad-row while
/// all 16 columns and 4 rows exist, the portable packer for the rest.
/// Bytewise identical to `detail::pack_panel_tail`; deliberately duplicated
/// from simd_avx2.cpp because intrinsics must stay inside the per-ISA TUs
/// (tools/lint/check_headers.py enforces this) and this TU must not assume
/// the AVX2 TU compiled.
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
void qgemm_avx512(std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, const float* a_scales,
                  const std::int8_t* b, const std::int64_t* b_rows,
                  float b_scale, float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    for (std::int64_t i = 0; i < m; ++i) {
      const float v = 0.f * (a_scales[i] * b_scale);
      std::fill(c + i * ldc, c + i * ldc + n, v);
    }
    return;
  }
  const std::int64_t quads = (k + kQQuadK - 1) / kQQuadK;
  const std::int64_t kp = quads * kQQuadK;
  const std::int64_t tiles = (n + kQTileJ - 1) / kQTileJ;

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

  // Row sums of A over the real k range, for the +128 bias correction.
  // (Zero-padded A lanes sum to zero, and padded B lanes do bias the
  // accumulator — by 128 * a_pad = 0 — so padding never skews the fix.)
  auto& row_sums = detail::qrow_sum_scratch();
  row_sums.resize(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    std::int32_t s = 0;
    const std::int8_t* ai = a + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) s += ai[kk];
    row_sums[static_cast<std::size_t>(i)] = s;
  }
  const std::int32_t* sums = row_sums.data();

  const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
  // Register-block 4 weight rows per pass: each packed quad-row is loaded
  // and biased (+128 XOR) once for 4 rows of output.  Rows keep independent
  // accumulators, so the int32 result is unchanged.
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
      __m512i acc[kRowBlk];
      for (std::int64_t r = 0; r < rows; ++r) acc[r] = _mm512_setzero_si512();
      for (std::int64_t q = 0; q < quads; ++q) {
        const __m512i bv = _mm512_loadu_si512(blk + q * 64);
        // b + 128 as unsigned bytes: one XOR against 0x80.
        const __m512i ub = _mm512_xor_si512(bv, bias);
        for (std::int64_t r = 0; r < rows; ++r) {
          std::int32_t aq;
          std::memcpy(&aq, a_eff + (i0 + r) * lda + q * kQQuadK, sizeof(aq));
          // All-zero weight quad (pruning): its true contribution is 0 and
          // its bias term is 128 * 0 = 0, so skipping is exact.
          if (aq == 0) continue;
          acc[r] = _mm512_dpbusd_epi32(acc[r], ub, _mm512_set1_epi32(aq));
        }
      }
      for (std::int64_t r = 0; r < rows; ++r) {
        const __m512i correction = _mm512_set1_epi32(128 * sums[i0 + r]);
        const float scale = a_scales[i0 + r] * b_scale;
        float* ci = c + (i0 + r) * ldc;
        const __m512i fixed = _mm512_sub_epi32(acc[r], correction);
        const __m512 f = _mm512_mul_ps(_mm512_cvtepi32_ps(fixed),
                                       _mm512_set1_ps(scale));
        if (j0 + kQTileJ <= n) {
          _mm512_storeu_ps(ci + j0, f);
        } else {
          alignas(64) float tmp[kQTileJ];
          _mm512_store_ps(tmp, f);
          std::memcpy(ci + j0, tmp,
                      static_cast<std::size_t>(n - j0) * sizeof(float));
        }
      }
    }
  }
}

/// One R x 32 block of C (R <= 8 rows of two zmm each, 16 accumulators at
/// most) summed over all of k: every accumulator starts at +0 and takes one
/// FMA per kk in ascending order, so each element gets the scalar tier's
/// sum.  `aw` is the block's first widened A row (row stride k), `b` and `c`
/// point at the block's first column, B row kk at b + b_rows[kk]; `mask`
/// selects its live columns when the block is not Full.
template <int R, bool Full>
void block_hh(std::int64_t k, const float* aw, const util::half* b,
              const std::int64_t* b_rows, float* c, std::int64_t ldc,
              __mmask32 mask) {
  __m512 acc0[R], acc1[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    acc0[r] = _mm512_setzero_ps();
    acc1[r] = _mm512_setzero_ps();
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const util::half* bk = b + b_rows[kk];
    __m512 b0, b1;
    if constexpr (Full) {
      b0 = _mm512_cvtph_ps(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bk)));
      b1 = _mm512_cvtph_ps(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bk + 16)));
    } else {
      const __m512i raw = _mm512_maskz_loadu_epi16(mask, bk);
      b0 = _mm512_cvtph_ps(_mm512_castsi512_si256(raw));
      b1 = _mm512_cvtph_ps(_mm512_extracti64x4_epi64(raw, 1));
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(aw[r * k + kk]);
      acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* cr = c + r * ldc;
    if constexpr (Full) {
      _mm512_storeu_ps(cr, acc0[r]);
      _mm512_storeu_ps(cr + 16, acc1[r]);
    } else {
      _mm512_mask_storeu_ps(cr, static_cast<__mmask16>(mask), acc0[r]);
      _mm512_mask_storeu_ps(cr + 16, static_cast<__mmask16>(mask >> 16),
                            acc1[r]);
    }
  }
}

using BlockHh = void (*)(std::int64_t, const float*, const util::half*,
                         const std::int64_t*, float*, std::int64_t, __mmask32);

template <bool Full>
constexpr BlockHh kBlockHh[9] = {
    nullptr,           &block_hh<1, Full>, &block_hh<2, Full>,
    &block_hh<3, Full>, &block_hh<4, Full>, &block_hh<5, Full>,
    &block_hh<6, Full>, &block_hh<7, Full>, &block_hh<8, Full>};

/// Register-blocked fp16 tile (contract in simd_dispatch.hpp).  Column
/// blocks of 32 outside, row blocks of 8 inside, so the B panel of one
/// column block (k x 32 halves) is reused from L1 by every row block.
void tile_hh_avx512(std::int64_t i0, std::int64_t i1, std::int64_t j0,
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
  for (std::int64_t j = j0; j < j1; j += 32) {
    const std::int64_t width = std::min<std::int64_t>(32, j1 - j);
    const bool full = width == 32;
    const auto mask = static_cast<__mmask32>(
        full ? ~0u : (1u << static_cast<unsigned>(width)) - 1u);
    for (std::int64_t i = 0; i < m; i += 8) {
      const auto rows = static_cast<int>(std::min<std::int64_t>(8, m - i));
      const BlockHh block = full ? kBlockHh<true>[rows] : kBlockHh<false>[rows];
      block(k, aw.data() + i * k, b + j, b_rows, c + (i0 + i) * ldc + j, ldc,
            mask);
    }
  }
}

/// a[o] += v * w[o] for o < n < 16, in unmasked pieces of 8, 4, 2 and 1
/// floats.  A masked store does not forward to a later load of the same
/// accumulator row, and at stride 2 the next voxels of a row reload it at
/// once: a masked tail cost the 3-D first conv (2 or 8 channels) 2-3x per
/// (voxel, tap) pair.  `vv` holds v in every lane.  The products are exact,
/// so multiply-then-add rounds like an FMA (this TU has no -mfma).
inline void add_tail(__m512 vv, const float* w, float* a, std::int64_t n) {
  const __m256 v8 = _mm512_castps512_ps256(vv);
  const __m128 v4 = _mm512_castps512_ps128(vv);
  if (n & 8) {
    _mm256_storeu_ps(a, _mm256_add_ps(_mm256_loadu_ps(a),
                                      _mm256_mul_ps(v8, _mm256_loadu_ps(w))));
    a += 8;
    w += 8;
  }
  if (n & 4) {
    _mm_storeu_ps(a,
                  _mm_add_ps(_mm_loadu_ps(a), _mm_mul_ps(v4, _mm_loadu_ps(w))));
    a += 4;
    w += 4;
  }
  if (n & 2) {
    const __m128 w2 = _mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w)));
    const __m128 a2 = _mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(a),
                     _mm_castps_si128(_mm_add_ps(a2, _mm_mul_ps(v4, w2))));
    a += 2;
    w += 2;
  }
  if (n & 1) *a += _mm_cvtss_f32(v4) * *w;
}

/// The scatter's voxel loop at a fixed channel width: `kFull` zmm of 16
/// output channels per tap, then the out_c % 16 others when `kTail`;
/// kFull = -1 reads the width from out_c at run time.  Finds the nonzeros
/// of each input row sixteen at a time with a compare mask, in ascending x,
/// and walks each voxel's taps with `for_each_tap`.
template <int kFull, bool kTail>
std::int64_t scatter_rows(const float* x, const Conv3dGeom& g,
                          std::int64_t out_c, const float* slab, float* acc,
                          const detail::VolumeTaps& t,
                          const detail::TapSteps& steps) {
  const std::int64_t full = kFull >= 0 ? kFull : out_c / 16;
  const std::int64_t rem = out_c % 16;
  const bool has_tail = kFull >= 0 ? kTail : rem != 0;
  const __m512 zero = _mm512_setzero_ps();
  std::int64_t taps = 0;
  for (std::int64_t c = 0; c < g.c; ++c) {
    for (std::int64_t iz = 0; iz < g.d; ++iz) {
      const detail::AxisTaps tz = t.z[iz];
      for (std::int64_t iy = 0; iy < g.h; ++iy) {
        const detail::AxisTaps ty = t.y[iy];
        if (tz.count == 0 || ty.count == 0) continue;
        const float* row = x + ((c * g.d + iz) * g.h + iy) * g.w;
        for (std::int64_t x0 = 0; x0 < g.w; x0 += 16) {
          const std::int64_t len = std::min<std::int64_t>(16, g.w - x0);
          const auto lanes = static_cast<__mmask16>((1u << len) - 1u);
          // NEQ_UQ: a NaN counts as nonzero, as `v == 0.f` does in scalar.
          unsigned nz = _mm512_mask_cmp_ps_mask(
              lanes, _mm512_maskz_loadu_ps(lanes, row + x0), zero,
              _CMP_NEQ_UQ);
          while (nz != 0) {
            const std::int64_t ix = x0 + __builtin_ctz(nz);
            nz &= nz - 1;
            const __m512 vv = _mm512_set1_ps(row[ix]);
            taps += detail::for_each_tap(
                slab, acc, c, tz, ty, t.x[ix], steps,
                [vv, full, rem, has_tail](const float* w, float* a) {
                  for (std::int64_t o = 0; o < full; ++o) {
                    _mm512_storeu_ps(
                        a + 16 * o,
                        _mm512_fmadd_ps(vv, _mm512_loadu_ps(w + 16 * o),
                                        _mm512_loadu_ps(a + 16 * o)));
                  }
                  if (has_tail) add_tail(vv, w + 16 * full, a + 16 * full, rem);
                });
          }
        }
      }
    }
  }
  return taps;
}

/// Sparse conv scatter (contract in simd_dispatch.hpp): picks the channel
/// width once per call, so the tap loops carry no channel-loop count, and
/// adds each voxel's slab rows sixteen output channels per FMA.  The
/// products are exact, so the FMA rounds exactly like the scalar tier's
/// multiply-then-add.
std::int64_t scatter_conv_avx512(const float* x, const Conv3dGeom& g,
                                 std::int64_t out_c, const float* slab,
                                 float* acc) {
  using Rows = std::int64_t (*)(const float*, const Conv3dGeom&, std::int64_t,
                                const float*, float*, const detail::VolumeTaps&,
                                const detail::TapSteps&);
  // Indexed by [out_c / 16][out_c % 16 != 0]: BCAE's 2, 8 and 32 channels
  // and every width below 48.
  static constexpr Rows kRows[3][2] = {
      {&scatter_rows<-1, false>, &scatter_rows<0, true>},
      {&scatter_rows<1, false>, &scatter_rows<1, true>},
      {&scatter_rows<2, false>, &scatter_rows<2, true>}};
  thread_local std::vector<detail::AxisTaps> buf;
  const detail::VolumeTaps t = detail::volume_taps(g, buf);
  const detail::TapSteps steps = detail::tap_steps(g, out_c);
  const std::int64_t vecs = out_c / 16;
  const Rows rows = vecs < 3 ? kRows[vecs][out_c % 16 != 0]
                             : &scatter_rows<-1, false>;
  return rows(x, g, out_c, slab, acc, t, steps);
}

}  // namespace

namespace detail {

Kernels avx512_kernels() {
  Kernels t;
  t.qgemm = &qgemm_avx512;
  t.tile_hh = &tile_hh_avx512;
  t.scatter_conv = &scatter_conv_avx512;
  return t;
}

bool avx512_compiled() { return true; }

}  // namespace detail
}  // namespace nc::core::simd

#else  // TU built without AVX-512 VNNI target support

namespace nc::core::simd::detail {

Kernels avx512_kernels() { return {}; }
bool avx512_compiled() { return false; }

}  // namespace nc::core::simd::detail

#endif
