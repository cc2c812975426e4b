/// \file simd_dispatch.hpp
/// \brief Runtime-dispatched SIMD kernel layer for the encode hot loops.
///
/// The build passes no `-march` flags, so a compile-time `#ifdef __AVX2__`
/// gate means "dead code in every default build" (that was the fate of the
/// original F16C half-GEMM path).  This layer fixes the pattern structurally:
///
///   * the hot kernels (int8 GEMM, fp16 GEMM tile, activation quantization,
///     sparse conv scatter) live behind per-kernel function pointers in a
///     `Kernels` table;
///   * per-ISA implementations are compiled in dedicated translation units
///     with per-file target flags (`simd_avx2.cpp` with `-mavx2 -mfma
///     -mf16c`, `simd_avx512.cpp` with `-mavx512f -mavx512bw -mavx512vnni`)
///     so the rest of the library stays portable baseline x86-64 (or any
///     other architecture — the scalar table is always available);
///   * the table is resolved once per process from a CPUID feature probe
///     (`__builtin_cpu_supports`), overridable with `NC_SIMD=scalar|avx2|
///     avx512|auto` for testing and CI.
///
/// Numerics contract: every dispatched kernel agrees with the scalar
/// reference bit for bit.  For the integer kernels (`qgemm`, `max_abs`,
/// `quantize_scaled`) the arithmetic is exact.  For `tile_hh` and
/// `scatter_conv` every product is exact in binary32 (binary16 x binary16
/// has at most 22 significant bits; int8 x int8 at most 14), so an FMA and a
/// separately rounded multiply-add give the same bits, and each output sums
/// its terms in the same order on every tier, however a tier blocks them.  tests/test_simd_kernels.cpp
/// and tests/test_conv_oracle.cpp enforce this for every ISA the host
/// supports.
///
/// This header is intrinsics-free on purpose: it must compile standalone on
/// any target (tools/lint/check_headers.py also enforces that `<immintrin.h>`
/// appears only inside the per-ISA translation units).
#pragma once

#include <cstdint>
#include <vector>

#include "util/half.hpp"

namespace nc::core {
struct Conv3dGeom;  // core/im2col.hpp
}  // namespace nc::core

namespace nc::core::simd {

/// Instruction-set tiers, ordered: a higher tier inherits every kernel the
/// lower tiers provide and overrides the ones it accelerates further.
enum class Isa : int {
  kScalar = 0,  ///< portable C++ (always available, the reference semantics)
  kAvx2 = 1,    ///< AVX2 + FMA + F16C (256-bit int8 dot, fp16 widening)
  kAvx512 = 2,  ///< AVX-512 F/BW + VNNI (512-bit `vpdpbusd` int8 dot)
};

/// Lower-case tier name ("scalar", "avx2", "avx512") for logs and JSON.
const char* isa_name(Isa isa);

/// The dispatched kernel table.  All pointers are non-null in any table
/// returned by `kernels()`/`kernels_for()`.
struct Kernels {
  /// C (m x n, leading dim ldc) = diag(a_scales) * (A8 * B8) * b_scale with
  /// int32 accumulation; same contract as `nc::core::qgemm`.  A8 is the
  /// quantized weight (lda = k) with entries in [-127, 127] (the
  /// `quantize_rows` guarantee; -128 weights would break the AVX2
  /// sign-transfer trick), B8 the quantized activation panel (full int8
  /// range accepted).  Bit-exact across ISAs.
  void (*qgemm)(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t* a, const float* a_scales,
                const std::int8_t* b, float b_scale, float* c,
                std::int64_t ldc) = nullptr;

  /// max_i |x_i| over n floats (0.f for n <= 0).  Finite inputs assumed.
  float (*max_abs)(const float* x, std::int64_t n) = nullptr;

  /// out_i = int8(round_to_nearest_even(clamp(x_i * inv_scale, ±127))).
  /// Round-to-nearest-even is the native rounding of VCVTPS2DQ; the scalar
  /// reference uses std::nearbyintf to match bit-for-bit.
  void (*quantize_scaled)(const float* x, std::int64_t n, float inv_scale,
                          std::int8_t* out) = nullptr;

  /// Half-storage GEMM on one tile of C, which it overwrites:
  /// C[i, j] = sum over kk < k of float(A[i, kk]) * float(B[kk, j]) for
  /// i0 <= i < i1, j0 <= j < j1, each element summed from +0 in ascending kk
  /// and nothing outside the tile written.  B must be finite (every caller
  /// fills it with `util::float_to_half_sat_n`): then a zero A entry adds an
  /// exact zero to a sum that is never -0, so the scalar reference may skip
  /// it and the vector tiers need not.  The vector tiers widen A to fp32
  /// once per call and keep a register block of C across all of k (8 x 32 on
  /// AVX-512, 6 x 16 on AVX2), widening B with VCVTPH2PS and adding each
  /// exact product with one FMA, so they are bit-identical to the scalar
  /// tier's multiply-then-add.  The scalar tier widens A once per call and
  /// each B row once per 256-column block.
  void (*tile_hh)(std::int64_t i0, std::int64_t i1, std::int64_t j0,
                  std::int64_t j1, std::int64_t k, const util::half* a,
                  std::int64_t lda, const util::half* b, std::int64_t ldb,
                  float* c, std::int64_t ldc) = nullptr;

  /// Sparse direct convolution of one (g.c, g.d, g.h, g.w) sample (a 2-D
  /// conv is the case d = kd = 1).  Every nonzero input voxel
  /// v = x[c, z, y, x], visited in (c, z, y, x) order, adds itself times its
  /// weight slab row into each output voxel p = (oz, oy, ox) that it reaches
  /// through kernel tap (kz, ky, kx):
  ///
  ///   acc[p * out_c + o] +=
  ///       v * slab[(((c * kd + kz) * kh + ky) * kw + kx) * out_c + o]
  ///
  /// for o < out_c.  `acc` is voxel-major (out_d * out_h * out_w, out_c) and
  /// is added to, not cleared; `slab` is the weight as (c * kd * kh * kw,
  /// out_c).  For a fixed output, the input index i = o * s - p + k grows
  /// with the tap k along every axis, so the visit order hands each output
  /// its terms in ascending vol2col row order (c, kz, ky, kx), the order
  /// `tile_hh` sums in; the skipped terms are exact zeros.  So when every
  /// product is exact in binary32 (inputs and slab hold binary16 values, or
  /// integers in [-127, 127]) the sums are bit-identical to the dense
  /// vol2col + GEMM lowering, on every tier.  Returns the number of
  /// (voxel, tap) pairs applied: 2 * out_c flops each.
  std::int64_t (*scatter_conv)(const float* x, const Conv3dGeom& g,
                               std::int64_t out_c, const float* slab,
                               float* acc) = nullptr;
};

/// True iff `isa` is usable here: compiled into this binary AND reported by
/// the CPU at runtime.  kScalar is always supported.
bool isa_supported(Isa isa);

/// Highest supported tier on this host.
Isa best_isa();

/// Resolve a tier request ("scalar" | "avx2" | "avx512" | "auto" | null).
/// "auto"/null/empty pick `best_isa()`.  A request above what the host
/// supports clamps down to the best supported tier at most the request
/// (with a warning); an unrecognized string warns and falls back to auto.
/// Exposed for tests; `active_isa()` applies it to the NC_SIMD env var.
Isa resolve_isa(const char* request);

/// The process-wide tier: `resolve_isa(getenv("NC_SIMD"))`, resolved once on
/// first use and fixed thereafter (kernel pointers must not change under a
/// running pipeline).
Isa active_isa();

/// Kernel table for an explicit tier (requires `isa_supported(isa)`;
/// unsupported tiers fall back to the best supported one below them).
/// Entries a tier does not override are inherited from the tier below, so
/// every returned table is fully populated.
const Kernels& kernels_for(Isa isa);

/// Kernel table for `active_isa()` — the one hot paths use.
const Kernels& kernels();

namespace detail {
/// Per-ISA providers, each defined in its own translation unit.  Entries
/// left null are inherited from the next-lower tier at merge time; the
/// AVX2/AVX-512 providers return an empty table when their TU was built
/// without the per-file target flags (non-x86 or ancient compiler).
Kernels scalar_kernels();
Kernels avx2_kernels();
Kernels avx512_kernels();
bool avx2_compiled();
bool avx512_compiled();

/// The kernel taps one input index meets along one conv axis: taps first,
/// first + stride, ... (count of them) reach outputs out, out - 1, ...
/// count is 0 for an index no window covers.
struct AxisTaps {
  std::int64_t first = 0, count = 0, out = 0;
};

/// The taps of every input index of `g`, per axis: z[i] for i < g.d, y[i]
/// for i < g.h, x[i] for i < g.w.  All three live in the one buffer passed
/// to `volume_taps`.
struct VolumeTaps {
  const AxisTaps* z = nullptr;
  const AxisTaps* y = nullptr;
  const AxisTaps* x = nullptr;
};

/// Fill `buf` with the taps of every input index of `g`'s three axes and
/// return views of them (valid while `buf` is unchanged).  Defined once, in
/// the portable TU, for every tier's scatter and for the int8 quantizer.
VolumeTaps volume_taps(const Conv3dGeom& g, std::vector<AxisTaps>& buf);

/// Thread-local fp32 copy of the A rows a `tile_hh` call multiplies with
/// (capacity retained across calls, so steady-state inference allocates
/// nothing).
std::vector<float>& tile_a_scratch();
}  // namespace detail

}  // namespace nc::core::simd
