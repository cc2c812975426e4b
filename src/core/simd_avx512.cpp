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
/// Bytewise identical to the portable packer; deliberately duplicated from
/// simd_avx2.cpp because intrinsics must stay inside the per-ISA TUs
/// (tools/lint/check_headers.py enforces this) and this TU must not assume
/// the AVX2 TU compiled.
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

void qgemm_avx512(std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, const float* a_scales,
                  const std::int8_t* b, float b_scale, float* c,
                  std::int64_t ldc) {
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

  auto& packed = detail::qpack_scratch();
  packed.resize(static_cast<std::size_t>(detail::packed_b_bytes(k, n)));
  pack_b_panel(b, k, n, packed.data());

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

  const std::int8_t* pk = packed.data();
  const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
  // Register-block 4 weight rows per pass: each packed quad-row is loaded
  // and biased (+128 XOR) once for 4 rows of output.  Rows keep independent
  // accumulators, so the int32 result is unchanged.
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
      const std::int64_t j0 = t * kQTileJ;
      for (std::int64_t r = 0; r < rows; ++r) {
        const __m512i correction = _mm512_set1_epi32(
            128 * row_sums[static_cast<std::size_t>(i0 + r)]);
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
/// point at the block's first column; `mask` selects its live columns when
/// the block is not Full.
template <int R, bool Full>
void block_hh(std::int64_t k, const float* aw, const util::half* b,
              std::int64_t ldb, float* c, std::int64_t ldc, __mmask32 mask) {
  __m512 acc0[R], acc1[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    acc0[r] = _mm512_setzero_ps();
    acc1[r] = _mm512_setzero_ps();
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const util::half* bk = b + kk * ldb;
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
                         std::int64_t, float*, std::int64_t, __mmask32);

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
                    std::int64_t lda, const util::half* b, std::int64_t ldb,
                    float* c, std::int64_t ldc) {
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
      block(k, aw.data() + i * k, b + j, ldb, c + (i0 + i) * ldc + j, ldc,
            mask);
    }
  }
}

/// Sparse conv scatter (contract in simd_dispatch.hpp): finds the nonzeros
/// of each input row sixteen at a time with a compare mask, in ascending x,
/// and adds each voxel's slab rows sixteen output channels per FMA.  The
/// products are exact, so the FMA rounds exactly like the scalar tier's
/// multiply-then-add.
std::int64_t scatter_conv_avx512(const float* x, const Conv3dGeom& g,
                                 std::int64_t out_c, const float* slab,
                                 float* acc) {
  std::vector<detail::AxisTaps> buf;
  const detail::VolumeTaps t = detail::volume_taps(g, buf);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t full = out_c / 16 * 16;
  const auto tail = static_cast<__mmask16>((1u << (out_c - full)) - 1u);
  const __m512 zero = _mm512_setzero_ps();
  std::int64_t taps = 0;

  auto scatter = [&](std::int64_t c, const detail::AxisTaps& tz,
                     const detail::AxisTaps& ty, std::int64_t ix, float v) {
    const detail::AxisTaps tx = t.x[ix];
    const __m512 vv = _mm512_set1_ps(v);
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
          for (; o < full; o += 16) {
            _mm512_storeu_ps(out + o,
                             _mm512_fmadd_ps(vv, _mm512_loadu_ps(w + o),
                                             _mm512_loadu_ps(out + o)));
          }
          if (o < out_c) {
            _mm512_mask_storeu_ps(
                out + o, tail,
                _mm512_fmadd_ps(vv, _mm512_maskz_loadu_ps(tail, w + o),
                                _mm512_maskz_loadu_ps(tail, out + o)));
          }
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
            scatter(c, tz, ty, ix, row[ix]);
          }
        }
      }
    }
  }
  return taps;
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
