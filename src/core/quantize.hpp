/// \file quantize.hpp
/// \brief Post-training optimization of trained networks — the paper's §4
///        future-work list ("network pruning, quantization, and sparse CNN
///        techniques"), implemented for the encoder deployment path.
///
/// Quantization: symmetric int8 with per-output-channel weight scales and
/// dynamic per-tensor activation scales (the standard PTQ recipe).  Conv
/// layers expose it through `Mode::kEvalInt8`; layers without weights pass
/// float32 through unchanged, so a whole encoder can run quantized without
/// calibration data.
///
/// Pruning: global magnitude pruning across a parameter set.  The fp32 GEMM
/// microkernel already skips zero weight entries (see gemm.cpp), so pruning
/// translates directly into inference speedup without a sparse format.
#pragma once

#include <cstdint>
#include <vector>

#include "core/layer.hpp"
#include "core/tensor.hpp"

namespace nc::core {

/// Row-quantized int8 matrix: row i stores w[i,k] ≈ values[i*k + k] * scale[i].
struct QuantizedRows {
  std::vector<std::int8_t> values;
  std::vector<float> scales;  ///< one per row
  std::int64_t rows = 0;
  std::int64_t cols = 0;
};

/// Symmetric per-row quantization of a (rows x cols) weight matrix.
/// Values are clamped to [-127, 127] (never -128 — the int8 GEMM's AVX2
/// sign-transfer kernel relies on that headroom) and rounded to nearest-even.
QuantizedRows quantize_rows(const float* w, std::int64_t rows, std::int64_t cols);

/// The dequantization scale of a row or tensor whose largest magnitude is
/// `max_abs`: max_abs / 127, but at least FLT_MIN so that its reciprocal is
/// finite (a smaller scale would turn every zero into 0 * inf = NaN), or 1
/// when max_abs is 0.  Codes of inputs with max_abs >= 127 * FLT_MIN are
/// those of the plain max_abs / 127.
float quant_scale(float max_abs);

/// Symmetric per-tensor quantization of activations (dynamic): returns the
/// dequantization scale `quant_scale(max |x|)`; `out` receives
/// round-to-nearest-even(x * (1 / scale)) clamped to ±127.  Both passes (max-abs scan + quantize) run through the
/// runtime SIMD dispatcher (core/simd_dispatch.hpp) and are bit-identical
/// across ISA tiers.
float quantize_tensor(const float* x, std::int64_t n, std::int8_t* out);

/// C (M x N) = diag(a_scales) * (A8 * B8) * b_scale, int32 accumulation.
/// A8 is the quantized weight (lda = k) with entries in [-127, 127], B8 the
/// quantized activation panel (full int8 range), whose row kk is the N
/// codes at b + b_rows[kk]: the in-place conv lowering passes the tap
/// offsets of its zero-haloed codes (see `HaloGeom` in core/im2col.hpp).
/// Runtime-dispatched to the best SIMD tier (AVX2 vpmaddubsw / AVX-512
/// vpdpbusd) with the portable scalar loop as fallback; all tiers produce
/// bit-identical results (tests/test_simd_kernels.cpp).
void qgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, const float* a_scales, const std::int8_t* b,
           const std::int64_t* b_rows, float b_scale, float* c,
           std::int64_t ldc);

// -- pruning ------------------------------------------------------------------

/// Zero the smallest-magnitude `fraction` of all weights across `params`
/// (global threshold; biases and 1-element params are skipped).  Returns the
/// number of weights zeroed.
std::int64_t prune_by_magnitude(const std::vector<Param*>& params,
                                double fraction);

/// Fraction of exactly-zero weights across the parameter set.
double weight_sparsity(const std::vector<Param*>& params);

}  // namespace nc::core
