#include "core/loss.hpp"

#include <cmath>

#include "core/act.hpp"
#include "core/ops.hpp"
#include "util/parallel.hpp"

namespace nc::core {

namespace {
constexpr double kLn2 = 0.6931471805599453;

inline double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

/// log(sigmoid(z)) = -softplus(-z), computed without overflow.
inline double log_sigmoid(double z) {
  return z >= 0.0 ? -std::log1p(std::exp(-z)) : z - std::log1p(std::exp(z));
}
}  // namespace

LossValue focal_loss_with_logits(const Tensor& logits, const Tensor& labels,
                                 float gamma) {
  check_same_shape(logits, labels, "focal_loss");
  const std::int64_t m = logits.numel();
  LossValue out;
  out.grad = Tensor(logits.shape());
  const float* zp = logits.data();
  const float* lp = labels.data();
  float* gp = out.grad.data();
  const double g = gamma;
  const double inv_m = 1.0 / static_cast<double>(m);
  double acc = 0.0;

#ifdef _OPENMP
#pragma omp parallel for reduction(+ : acc) schedule(static) \
    if (m > (1 << 14) && util::may_fork())
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    const double z = zp[i];
    const double p = sigmoid(z);
    if (lp[i] > 0.5f) {
      // positive voxel: -log2(p) * (1-p)^gamma
      const double log2p = log_sigmoid(z) / kLn2;
      const double w = std::pow(1.0 - p, g);
      acc += -log2p * w;
      // d/dz [ log2(p) (1-p)^g ] = (1-p)^g [ (1-p)/ln2 - g p log2(p) ]
      const double df = w * ((1.0 - p) / kLn2 - g * p * log2p);
      gp[i] = static_cast<float>(-inv_m * df);
    } else {
      // negative voxel: -log2(1-p) * p^gamma
      const double log2q = log_sigmoid(-z) / kLn2;
      const double w = std::pow(p, g);
      acc += -log2q * w;
      // d/dz [ log2(1-p) p^g ] = -p^{g+1}/ln2 + g p^g (1-p) log2(1-p)
      const double dg = -w * p / kLn2 + g * w * (1.0 - p) * log2q;
      gp[i] = static_cast<float>(-inv_m * dg);
    }
  }
  out.value = acc * inv_m;
  return out;
}

LossValue bce_loss_with_logits(const Tensor& logits, const Tensor& labels) {
  check_same_shape(logits, labels, "bce_loss");
  const std::int64_t m = logits.numel();
  LossValue out;
  out.grad = Tensor(logits.shape());
  const float* zp = logits.data();
  const float* lp = labels.data();
  float* gp = out.grad.data();
  const double inv_m = 1.0 / static_cast<double>(m);
  double acc = 0.0;
#ifdef _OPENMP
#pragma omp parallel for reduction(+ : acc) schedule(static) \
    if (m > (1 << 14) && util::may_fork())
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    const double z = zp[i];
    const double l = lp[i];
    acc += -(l * log_sigmoid(z) + (1.0 - l) * log_sigmoid(-z));
    gp[i] = static_cast<float>(inv_m * (sigmoid(z) - l));
  }
  out.value = acc * inv_m;
  return out;
}

LossValue masked_mae_loss(const Tensor& pred, const Tensor& target,
                          const Tensor& seg_logits, float threshold) {
  check_same_shape(pred, target, "masked_mae(pred,target)");
  check_same_shape(pred, seg_logits, "masked_mae(pred,logits)");
  const std::int64_t m = pred.numel();
  LossValue out;
  out.grad = Tensor(pred.shape());
  const float* vp = pred.data();
  const float* tp = target.data();
  const float* zp = seg_logits.data();
  float* gp = out.grad.data();
  // sigma(z) > h  <=>  z > logit(h); avoids per-voxel exp.
  const float z_cut = std::log(threshold / (1.f - threshold));
  const double inv_m = 1.0 / static_cast<double>(m);
  double acc = 0.0;
#ifdef _OPENMP
#pragma omp parallel for reduction(+ : acc) schedule(static) \
    if (m > (1 << 14) && util::may_fork())
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    if (zp[i] > z_cut) {
      const double d = static_cast<double>(vp[i]) - static_cast<double>(tp[i]);
      acc += std::abs(d);
      gp[i] = static_cast<float>(inv_m * (d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0)));
    } else {
      acc += std::abs(static_cast<double>(tp[i]));  // masked-to-zero voxel
      gp[i] = 0.f;
    }
  }
  out.value = acc * inv_m;
  return out;
}

LossValue mae_loss(const Tensor& pred, const Tensor& target) {
  check_same_shape(pred, target, "mae_loss");
  const std::int64_t m = pred.numel();
  LossValue out;
  out.grad = Tensor(pred.shape());
  const float* vp = pred.data();
  const float* tp = target.data();
  float* gp = out.grad.data();
  const double inv_m = 1.0 / static_cast<double>(m);
  double acc = 0.0;
#ifdef _OPENMP
#pragma omp parallel for reduction(+ : acc) schedule(static) \
    if (m > (1 << 14) && util::may_fork())
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    const double d = static_cast<double>(vp[i]) - static_cast<double>(tp[i]);
    acc += std::abs(d);
    gp[i] = static_cast<float>(inv_m * (d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0)));
  }
  out.value = acc * inv_m;
  return out;
}

LossValue mse_loss(const Tensor& pred, const Tensor& target) {
  check_same_shape(pred, target, "mse_loss");
  const std::int64_t m = pred.numel();
  LossValue out;
  out.grad = Tensor(pred.shape());
  const float* vp = pred.data();
  const float* tp = target.data();
  float* gp = out.grad.data();
  const double inv_m = 1.0 / static_cast<double>(m);
  double acc = 0.0;
#ifdef _OPENMP
#pragma omp parallel for reduction(+ : acc) schedule(static) \
    if (m > (1 << 14) && util::may_fork())
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    const double d = static_cast<double>(vp[i]) - static_cast<double>(tp[i]);
    acc += d * d;
    gp[i] = static_cast<float>(inv_m * 2.0 * d);
  }
  out.value = acc * inv_m;
  return out;
}

double next_seg_coefficient(double c_t, double rho_seg, double rho_reg) {
  if (rho_seg <= 0.0) return 0.5 * c_t;
  return 0.5 * c_t + (rho_reg / rho_seg) * 1.5;
}

Tensor apply_segmentation_mask(const Tensor& pred, const Tensor& seg_logits,
                               float threshold) {
  check_same_shape(pred, seg_logits, "apply_segmentation_mask");
  Tensor out(pred.shape());
  const float* vp = pred.data();
  const float* zp = seg_logits.data();
  float* op = out.data();
  const float z_cut = std::log(threshold / (1.f - threshold));
  // A blend, not a branch: masked voxels sit in no pattern the branch
  // predictor could learn (see core/act.hpp).
  for (std::int64_t i = 0; i < pred.numel(); ++i) {
    op[i] = blend(zp[i] > z_cut, vp[i], 0.f);
  }
  return out;
}

}  // namespace nc::core
