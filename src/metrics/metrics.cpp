#include "metrics/metrics.hpp"

#include <cmath>
#include <limits>

#include "core/ops.hpp"
#include "util/parallel.hpp"

namespace nc::metrics {

ReconstructionMetrics evaluate_reconstruction(const core::Tensor& recon,
                                              const core::Tensor& truth,
                                              double peak,
                                              double positive_threshold) {
  core::check_same_shape(recon, truth, "evaluate_reconstruction");
  const std::int64_t n = recon.numel();
  const float* rp = recon.data();
  const float* tp = truth.data();

  double abs_sum = 0.0, sq_sum = 0.0;
  std::int64_t tp_count = 0, pred_pos = 0, actual_pos = 0;
#ifdef _OPENMP
#pragma omp parallel for reduction(+ : abs_sum, sq_sum, tp_count, pred_pos, \
                                       actual_pos) schedule(static) \
    if (n > (1 << 16) && util::may_fork())
#endif
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(rp[i]) - static_cast<double>(tp[i]);
    abs_sum += std::abs(d);
    sq_sum += d * d;
    const bool pred = rp[i] > 0.f;
    const bool actual = static_cast<double>(tp[i]) > positive_threshold;
    pred_pos += pred ? 1 : 0;
    actual_pos += actual ? 1 : 0;
    tp_count += (pred && actual) ? 1 : 0;
  }

  ReconstructionMetrics m;
  m.mae = n ? abs_sum / static_cast<double>(n) : 0.0;
  m.mse = n ? sq_sum / static_cast<double>(n) : 0.0;
  m.psnr = m.mse > 0.0 ? 10.0 * std::log10(peak * peak / m.mse)
                       : std::numeric_limits<double>::infinity();
  m.true_positive = tp_count;
  m.predicted_positive = pred_pos;
  m.actual_positive = actual_pos;
  m.precision = pred_pos ? static_cast<double>(tp_count) / static_cast<double>(pred_pos) : 0.0;
  m.recall = actual_pos ? static_cast<double>(tp_count) / static_cast<double>(actual_pos) : 0.0;
  return m;
}

void MetricsAccumulator::add(const ReconstructionMetrics& m, std::int64_t voxels) {
  abs_sum_ += m.mae * static_cast<double>(voxels);
  sq_sum_ += m.mse * static_cast<double>(voxels);
  voxels_ += voxels;
  tp_ += m.true_positive;
  pred_pos_ += m.predicted_positive;
  actual_pos_ += m.actual_positive;
}

ReconstructionMetrics MetricsAccumulator::result(double peak) const {
  ReconstructionMetrics m;
  if (voxels_ == 0) return m;
  m.mae = abs_sum_ / static_cast<double>(voxels_);
  m.mse = sq_sum_ / static_cast<double>(voxels_);
  m.psnr = m.mse > 0.0 ? 10.0 * std::log10(peak * peak / m.mse)
                       : std::numeric_limits<double>::infinity();
  m.true_positive = tp_;
  m.predicted_positive = pred_pos_;
  m.actual_positive = actual_pos_;
  m.precision = pred_pos_ ? static_cast<double>(tp_) / static_cast<double>(pred_pos_) : 0.0;
  m.recall = actual_pos_ ? static_cast<double>(tp_) / static_cast<double>(actual_pos_) : 0.0;
  return m;
}

}  // namespace nc::metrics
