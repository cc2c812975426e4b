#include "core/quantize.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "core/simd_dispatch.hpp"

namespace nc::core {

// The two quantization passes (max-abs scan, scaled round+clamp) and the
// int8 GEMM itself run through the runtime SIMD dispatcher; the scalar
// reference implementations live in core/simd_dispatch.cpp.  Rounding is
// round-to-nearest-even on every tier (VCVTPS2DQ semantics — the scalar
// fallback uses std::nearbyintf to match bit-for-bit).

float quant_scale(float max_abs) {
  return max_abs > 0.f ? std::max(max_abs / 127.f, FLT_MIN) : 1.f;
}

QuantizedRows quantize_rows(const float* w, std::int64_t rows, std::int64_t cols) {
  const simd::Kernels& ker = simd::kernels();
  QuantizedRows q;
  q.rows = rows;
  q.cols = cols;
  q.values.resize(static_cast<std::size_t>(rows * cols));
  q.scales.resize(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    const float scale = quant_scale(ker.max_abs(row, cols));
    q.scales[static_cast<std::size_t>(r)] = scale;
    ker.quantize_scaled(row, cols, 1.f / scale, q.values.data() + r * cols);
  }
  return q;
}

float quantize_tensor(const float* x, std::int64_t n, std::int8_t* out) {
  const simd::Kernels& ker = simd::kernels();
  const float scale = quant_scale(ker.max_abs(x, n));
  ker.quantize_scaled(x, n, 1.f / scale, out);
  return scale;
}

void qgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, const float* a_scales, const std::int8_t* b,
           const std::int64_t* b_rows, float b_scale, float* c,
           std::int64_t ldc) {
  simd::kernels().qgemm(m, n, k, a, a_scales, b, b_rows, b_scale, c, ldc);
}

std::int64_t prune_by_magnitude(const std::vector<Param*>& params,
                                double fraction) {
  if (fraction <= 0.0) return 0;
  // Collect magnitudes of all prunable weights (skip biases/norm params —
  // anything 1-D — as is standard practice).
  std::vector<float> mags;
  for (const auto* p : params) {
    if (p->value.ndim() < 2) continue;
    const float* w = p->value.data();
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      mags.push_back(std::abs(w[i]));
    }
  }
  if (mags.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(mags.size()),
                       fraction * static_cast<double>(mags.size())));
  if (k == 0) return 0;
  std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   mags.end());
  const float threshold = mags[k - 1];

  std::int64_t zeroed = 0;
  for (auto* p : params) {
    if (p->value.ndim() < 2) continue;
    float* w = p->value.data();
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      if (std::abs(w[i]) <= threshold && w[i] != 0.f) {
        w[i] = 0.f;
        ++zeroed;
      }
    }
  }
  return zeroed;
}

double weight_sparsity(const std::vector<Param*>& params) {
  std::int64_t zeros = 0, total = 0;
  for (const auto* p : params) {
    if (p->value.ndim() < 2) continue;
    const float* w = p->value.data();
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      zeros += (w[i] == 0.f) ? 1 : 0;
    }
    total += p->value.numel();
  }
  return total ? static_cast<double>(zeros) / static_cast<double>(total) : 0.0;
}

}  // namespace nc::core
