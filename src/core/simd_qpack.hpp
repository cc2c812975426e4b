/// \file simd_qpack.hpp
/// \brief Shared packed-B panel layout for the int8 GEMM kernels.
///
/// Both vector ISAs consume the same panel format.  `qgemm` packs one
/// 16-column panel at a time, straight from its B rows (a column matrix or
/// the in-place lowering's zero-haloed codes, through the row table), just
/// before its row blocks use it, so the panel is read from L1:
///
///   * a panel covers kQTileJ = 16 columns;
///   * k advances in quads of kQQuadK = 4, stored interleaved: byte
///     [(j - j0) * 4 + r] of quad-row q holds B[4q + r, j];
///   * both dimensions are zero-padded up to the tile/quad boundary.
///
/// One 64-byte quad-row is exactly one AVX-512 register (16 lanes x 4
/// bytes — the native operand shape of `vpdpbusd`), and exactly two AVX2
/// registers of 8 lanes each (the operand shape of the `vpmaddubsw` +
/// `vpmaddwd` pair).  The layout turns the inner loop of both kernels into
/// contiguous 32/64-byte loads with no shuffles.
///
/// Intrinsics-free on purpose.  `pack_panel_tail` below is the portable
/// packer of the quads and columns the vector tiers' SSE 4x16 byte
/// interleave cannot cover (a partial quad, or a panel past the last full
/// one), and the bytewise ground truth for that interleave.
#pragma once

#include <cstdint>
#include <vector>

namespace nc::core::simd::detail {

inline constexpr std::int64_t kQTileJ = 16;  ///< columns per packed j-tile
inline constexpr std::int64_t kQQuadK = 4;   ///< k values per interleaved quad

/// Bytes of one packed panel over k rows.
inline std::int64_t panel_bytes(std::int64_t k) {
  return (k + kQQuadK - 1) / kQQuadK * kQQuadK * kQTileJ;
}

/// Pack quads q0, q0 + 1, ... of the panel at columns [j0, j0 + 16) of B,
/// whose row kk is the n codes at b + b_rows[kk], into `panel` (which must
/// hold `panel_bytes(k)` bytes).  Rows at or past k and columns at or past
/// n are zero-filled, and nothing outside B's k runs of n is read.
void pack_panel_tail(const std::int8_t* b, const std::int64_t* b_rows,
                     std::int64_t k, std::int64_t n, std::int64_t j0,
                     std::int64_t q0, std::int8_t* panel);

/// Thread-local scratch buffers (capacity retained across calls so
/// steady-state inference performs no allocation; thread_local keeps the
/// buffers private to each OpenMP/pipeline worker).
std::vector<std::int8_t>& qpack_scratch();    ///< one packed B panel
std::vector<std::int8_t>& qpad_a_scratch();   ///< A rows padded to a quad multiple
std::vector<std::int32_t>& qrow_sum_scratch();///< per-row weight sums (VNNI bias fix)

}  // namespace nc::core::simd::detail
