/// \file im2col.hpp
/// \brief The lowerings of every conv layer: vol2col / col2vol, and the
///        zero-haloed volume that stride-1 eval convs multiply in place.
///
/// Layout conventions (all row-major, per sample — batching is handled by the
/// calling layer): volume (C, D, H, W); column matrix (C*KD*KH*KW, OD*OH*OW).
/// A 2-D conv is the case D = KD = 1, SD = 1, PD = 0: its (C, H, W) image has
/// the memory layout of a (C, 1, H, W) volume, so it lowers through the same
/// functions.
///
/// Who lowers how.  kEvalHalf and kEvalInt8 convs with stride 1 on every
/// axis (1x1 included) build no column matrix: they copy the sample once
/// into its zero-haloed layout (`HaloGeom`, `pad_volume`), in which column
/// row (c, kz, ky, kx) is the contiguous run of `HaloGeom::cols` elements
/// starting at `halo_row_offsets`' entry, and the GEMM reads those
/// overlapping runs through a row table.  `vol2col_3d` is left to strided
/// convs (the 3-D models' first conv), fp32 kEval and training, whose
/// backward and the transposed convs also use `col2vol_3d`.
///
/// The templated destination type lets the half-precision path lower
/// binary16 activations straight into a binary16 column buffer (halving the
/// bytes the GEMM streams) without a separate conversion pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "util/half.hpp"
#include "util/parallel.hpp"

namespace nc::core {

/// Spatial hyper-parameters of a convolution (depth = TPC radial dim; a 2-D
/// conv has d = kd = 1, sd = 1, pd = 0).
struct Conv3dGeom {
  std::int64_t c = 0, d = 0, h = 0, w = 0;
  std::int64_t kd = 0, kh = 0, kw = 0;
  std::int64_t sd = 1, sh = 1, sw = 1;
  std::int64_t pd = 0, ph = 0, pw = 0;

  std::int64_t out_d() const { return (d + 2 * pd - kd) / sd + 1; }
  std::int64_t out_h() const { return (h + 2 * ph - kh) / sh + 1; }
  std::int64_t out_w() const { return (w + 2 * pw - kw) / sw + 1; }
  std::int64_t rows() const { return c * kd * kh * kw; }
  std::int64_t cols() const { return out_d() * out_h() * out_w(); }
};

/// The zero-haloed layout of a stride-1 conv's (c, d, h, w) input: every
/// axis padded by its zero padding on both sides, so that no tap reads
/// outside the buffer.  Its outputs live on the padded-pitch grid: output
/// (oz, oy, ox) is column oz * plane + oy * pitch + ox of the GEMM, and
/// column row (ci, kz, ky, kx) is the run of `cols` elements starting at
/// ci * volume + kz * plane + ky * pitch + kx.  Each output sums the same
/// products as the column matrix's column, halo terms being exact zeros
/// where the column matrix holds its padding zeros; the columns with
/// ox >= out_w or oy >= out_h are halo columns, computed and dropped.  The
/// last row's run ends exactly at the buffer's last element.
struct HaloGeom {
  std::int64_t pitch = 0;   ///< row pitch, w + 2 pw
  std::int64_t plane = 0;   ///< plane pitch, (h + 2 ph) * pitch
  std::int64_t volume = 0;  ///< channel pitch, (d + 2 pd) * plane
  std::int64_t cols = 0;    ///< padded-grid columns, ends at (od-1, oh-1, ow-1)
};

/// The haloed layout of `g`, which must have stride 1 on every axis.  The
/// buffer holds g.c * volume elements.
inline HaloGeom halo_geom(const Conv3dGeom& g) {
  HaloGeom h;
  h.pitch = g.w + 2 * g.pw;
  h.plane = (g.h + 2 * g.ph) * h.pitch;
  h.volume = (g.d + 2 * g.pd) * h.plane;
  h.cols = (g.out_d() - 1) * h.plane + (g.out_h() - 1) * h.pitch + g.out_w();
  return h;
}

/// rows[r] = the start of column row r = (ci, kz, ky, kx) in the haloed
/// volume, for r < g.rows(): the row table of the in-place GEMM.
inline void halo_row_offsets(const Conv3dGeom& g, std::int64_t* rows) {
  const HaloGeom h = halo_geom(g);
  for (std::int64_t ci = 0; ci < g.c; ++ci)
    for (std::int64_t kz = 0; kz < g.kd; ++kz)
      for (std::int64_t ky = 0; ky < g.kh; ++ky)
        for (std::int64_t kx = 0; kx < g.kw; ++kx)
          *rows++ = ci * h.volume + kz * h.plane + ky * h.pitch + kx;
}

namespace detail {

/// The output columns [lo, hi) at which kernel tap `kx` of a conv axis
/// (input extent w, stride s, padding p, ow outputs) reads inside the
/// input: 0 <= ox * s - p + kx < w.
inline void tap_range(std::int64_t w, std::int64_t s, std::int64_t p,
                      std::int64_t kx, std::int64_t ow, std::int64_t& lo,
                      std::int64_t& hi) {
  const std::int64_t first = p - kx;         // ox * s >= first
  const std::int64_t last = w - 1 + p - kx;  // ox * s <= last
  lo = first <= 0 ? 0 : std::min(ow, (first + s - 1) / s);
  hi = last < 0 ? lo : std::max(lo, std::min(ow, last / s + 1));
}

template <typename T>
void zero_fill(T* dst, std::int64_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memset(static_cast<void*>(dst), 0, static_cast<std::size_t>(n) * sizeof(T));
}

/// One output row of a column-matrix row: dst[ox] = in_row[ox * s - p + kx]
/// for ox in [lo, hi), zero elsewhere.  Stride 1 between equal types is one
/// memcpy; the zero runs are memsets.
template <typename TSrc, typename TDst>
void lower_row(const TSrc* in_row, std::int64_t ow, std::int64_t lo,
               std::int64_t hi, std::int64_t s, std::int64_t ix_lo, TDst* dst) {
  zero_fill(dst, lo);
  if (hi > lo) {
    const TSrc* src = in_row + ix_lo;
    if (std::is_same_v<TSrc, TDst> && s == 1) {
      std::memcpy(static_cast<void*>(dst + lo), src,
                  static_cast<std::size_t>(hi - lo) * sizeof(TDst));
    } else {
      for (std::int64_t ox = lo; ox < hi; ++ox, src += s) dst[ox] = TDst(*src);
    }
  }
  zero_fill(dst + hi, ow - hi);
}

}  // namespace detail

/// Expand volume `in` into column matrix `cols` (size rows() x cols()).
/// TSrc == TDst == half on the half-precision path (the caller pre-converts
/// the input once, so lowering is a pure 2-byte gather — half the bytes of
/// the fp32 path with no per-element conversion); int8 codes on the int8
/// path.  Each column row computes once the output columns its tap reads
/// inside the volume and copies that run, so no element is bounds-checked.
template <typename TSrc, typename TDst>
void vol2col_3d(const TSrc* in, const Conv3dGeom& g, TDst* cols) {
  const std::int64_t od = g.out_d(), oh = g.out_h(), ow = g.out_w();
  util::parallel_for(
      0, g.rows(),
      [&](std::int64_t r) {
        const std::int64_t kw_i = r % g.kw;
        const std::int64_t kh_i = (r / g.kw) % g.kh;
        const std::int64_t kd_i = (r / (g.kw * g.kh)) % g.kd;
        const std::int64_t c_i = r / (g.kw * g.kh * g.kd);
        const TSrc* in_c = in + c_i * g.d * g.h * g.w;
        TDst* dst = cols + r * (od * oh * ow);
        std::int64_t lo = 0, hi = 0;
        detail::tap_range(g.w, g.sw, g.pw, kw_i, ow, lo, hi);
        const std::int64_t ix_lo = lo * g.sw - g.pw + kw_i;
        for (std::int64_t oz = 0; oz < od; ++oz) {
          const std::int64_t iz = oz * g.sd - g.pd + kd_i;
          if (iz < 0 || iz >= g.d) {
            detail::zero_fill(dst, oh * ow);
            dst += oh * ow;
            continue;
          }
          for (std::int64_t oy = 0; oy < oh; ++oy, dst += ow) {
            const std::int64_t iy = oy * g.sh - g.ph + kh_i;
            if (iy < 0 || iy >= g.h) {
              detail::zero_fill(dst, ow);
            } else {
              detail::lower_row(in_c + (iz * g.h + iy) * g.w, ow, lo, hi,
                                g.sw, ix_lo, dst);
            }
          }
        }
      },
      util::grain_for(od * oh * ow));
}

/// Copy volume `in` (c, d, h, w) into `out`, its zero-haloed layout
/// (`halo_geom(g)`, g.c * volume elements): each input row once, and the
/// halo between two rows zeroed as it passes.  Every element of `out` is
/// written.
template <typename T>
void pad_volume(const T* in, const Conv3dGeom& g, T* out) {
  const HaloGeom h = halo_geom(g);
  std::int64_t at = 0;  // elements of `out` written so far
  for (std::int64_t ci = 0; ci < g.c; ++ci) {
    for (std::int64_t z = 0; z < g.d; ++z) {
      for (std::int64_t y = 0; y < g.h; ++y, in += g.w) {
        const std::int64_t row = ci * h.volume + (z + g.pd) * h.plane +
                                 (y + g.ph) * h.pitch + g.pw;
        detail::zero_fill(out + at, row - at);
        std::memcpy(static_cast<void*>(out + row), in,
                    static_cast<std::size_t>(g.w) * sizeof(T));
        at = row + g.w;
      }
    }
  }
  detail::zero_fill(out + at, g.c * h.volume - at);
}

/// Scatter-accumulate a column matrix back into a volume (backward of
/// vol2col_3d; also the core of transposed-convolution forward).  `out` must
/// be pre-zeroed by the caller when accumulation starts fresh.
void col2vol_3d(const float* cols, const Conv3dGeom& g, float* out);

}  // namespace nc::core
