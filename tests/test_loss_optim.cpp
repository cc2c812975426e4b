/// Loss functions (focal, masked MAE), dynamic balancing, AdamW, schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>

#include "core/loss.hpp"
#include "core/optim.hpp"
#include "core/ops.hpp"
#include "tests/reference.hpp"

namespace {

using nc::core::Tensor;

/// Numerical gradient of a scalar loss w.r.t. one input tensor.
template <typename LossFn>
void check_loss_gradient(LossFn&& fn, Tensor& x, const Tensor& grad,
                         double eps = 1e-3, double tol = 2e-2) {
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(eps);
    const double lp = fn();
    x[i] = orig - static_cast<float>(eps);
    const double lm = fn();
    x[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric,
                tol * std::max({1.0, std::abs(numeric), std::abs((double)grad[i])}))
        << "element " << i;
  }
}

TEST(FocalLoss, MatchesManualComputationGammaZero) {
  // With gamma = 0 the focal loss reduces to BCE / ln2 (log base 2).
  const Tensor logits = Tensor::from_vector({4}, {0.f, 2.f, -2.f, 1.f});
  const Tensor labels = Tensor::from_vector({4}, {1.f, 1.f, 0.f, 0.f});
  const auto focal = nc::core::focal_loss_with_logits(logits, labels, 0.f);
  const auto bce = nc::core::bce_loss_with_logits(logits, labels);
  EXPECT_NEAR(focal.value, bce.value / std::log(2.0), 1e-9);
}

TEST(FocalLoss, ManualSingleVoxel) {
  // Positive voxel, p = sigmoid(0) = 0.5, gamma = 2:
  // L = -log2(0.5) * 0.5^2 = 1 * 0.25.
  const Tensor logits = Tensor::from_vector({1}, {0.f});
  const Tensor labels = Tensor::from_vector({1}, {1.f});
  const auto l = nc::core::focal_loss_with_logits(logits, labels, 2.f);
  EXPECT_NEAR(l.value, 0.25, 1e-6);
}

TEST(FocalLoss, DownweightsEasyExamples) {
  // An easy positive (large logit) must contribute far less than a hard one.
  const Tensor easy = Tensor::from_vector({1}, {4.f});
  const Tensor hard = Tensor::from_vector({1}, {-2.f});
  const Tensor pos = Tensor::from_vector({1}, {1.f});
  const auto le = nc::core::focal_loss_with_logits(easy, pos, 2.f);
  const auto lh = nc::core::focal_loss_with_logits(hard, pos, 2.f);
  EXPECT_LT(le.value * 100, lh.value);
}

TEST(FocalLoss, GradientMatchesNumeric) {
  Tensor logits = nc::testref::random_tensor({12}, 51);
  nc::core::scale(logits, 2.f);
  Tensor labels({12});
  for (std::int64_t i = 0; i < 12; ++i) labels[i] = (i % 3 == 0) ? 1.f : 0.f;
  const auto l = nc::core::focal_loss_with_logits(logits, labels, 2.f);
  check_loss_gradient(
      [&] { return nc::core::focal_loss_with_logits(logits, labels, 2.f).value; },
      logits, l.grad);
}

TEST(FocalLoss, GammaSweepGradients) {
  for (float gamma : {0.f, 1.f, 2.f, 3.f}) {
    Tensor logits = nc::testref::random_tensor({8}, 52 + static_cast<int>(gamma));
    Tensor labels({8});
    for (std::int64_t i = 0; i < 8; ++i) labels[i] = (i % 2) ? 1.f : 0.f;
    const auto l = nc::core::focal_loss_with_logits(logits, labels, gamma);
    check_loss_gradient(
        [&] {
          return nc::core::focal_loss_with_logits(logits, labels, gamma).value;
        },
        logits, l.grad);
  }
}

TEST(BceLoss, GradientMatchesNumeric) {
  Tensor logits = nc::testref::random_tensor({10}, 53);
  Tensor labels({10});
  for (std::int64_t i = 0; i < 10; ++i) labels[i] = (i % 2) ? 1.f : 0.f;
  const auto l = nc::core::bce_loss_with_logits(logits, labels);
  check_loss_gradient(
      [&] { return nc::core::bce_loss_with_logits(logits, labels).value; },
      logits, l.grad);
}

TEST(MaskedMae, MaskSemantics) {
  // Voxels with seg logit below logit(h) are reconstructed as zero: their
  // contribution is |target| and their prediction gradient is zero.
  const Tensor pred = Tensor::from_vector({4}, {7.f, 8.f, 9.f, 6.5f});
  const Tensor target = Tensor::from_vector({4}, {7.f, 0.f, 8.f, 7.f});
  const Tensor logits = Tensor::from_vector({4}, {5.f, 5.f, -5.f, -5.f});
  const auto l = nc::core::masked_mae_loss(pred, target, logits, 0.5f);
  // voxel 0: mask on, |7-7| = 0; voxel 1: mask on, |8-0| = 8;
  // voxel 2: mask off, |0-8| = 8; voxel 3: mask off, |0-7| = 7.
  EXPECT_NEAR(l.value, (0 + 8 + 8 + 7) / 4.0, 1e-6);
  EXPECT_EQ(l.grad[2], 0.f);
  EXPECT_EQ(l.grad[3], 0.f);
  EXPECT_GT(l.grad[1], 0.f);  // over-prediction: positive gradient
}

TEST(MaskedMae, GradientMatchesNumericOnMaskedVoxels) {
  Tensor pred = nc::testref::random_tensor({10}, 54);
  nc::core::add_scalar(pred, 7.f);
  Tensor target = nc::testref::random_tensor({10}, 55);
  nc::core::add_scalar(target, 7.f);
  Tensor logits = nc::testref::random_tensor({10}, 56);
  nc::core::scale(logits, 4.f);
  const auto l = nc::core::masked_mae_loss(pred, target, logits, 0.5f);
  check_loss_gradient(
      [&] {
        return nc::core::masked_mae_loss(pred, target, logits, 0.5f).value;
      },
      pred, l.grad);
}

TEST(MaeMseLoss, ValuesAndGradients) {
  Tensor pred = Tensor::from_vector({3}, {1.f, 2.f, 3.f});
  const Tensor target = Tensor::from_vector({3}, {2.f, 2.f, 1.f});
  const auto mae = nc::core::mae_loss(pred, target);
  EXPECT_NEAR(mae.value, (1 + 0 + 2) / 3.0, 1e-6);
  const auto mse = nc::core::mse_loss(pred, target);
  EXPECT_NEAR(mse.value, (1 + 0 + 4) / 3.0, 1e-6);
  check_loss_gradient([&] { return nc::core::mse_loss(pred, target).value; },
                      pred, mse.grad);
}

TEST(ApplySegmentationMask, ThresholdBehaviour) {
  const Tensor pred = Tensor::from_vector({2}, {7.f, 8.f});
  const Tensor logits = Tensor::from_vector({2}, {0.1f, -0.1f});
  const Tensor recon = nc::core::apply_segmentation_mask(pred, logits, 0.5f);
  EXPECT_EQ(recon[0], 7.f);  // sigmoid(0.1) > 0.5
  EXPECT_EQ(recon[1], 0.f);  // sigmoid(-0.1) < 0.5
}

TEST(ApplySegmentationMask, BranchFreeMaskKeepsEveryBit) {
  // Kept voxels keep their exact bits (-0 and subnormals included); masked
  // ones become +0, as the branch `z > z_cut ? v : 0.f` gives.
  const float kPred[] = {-0.f, 1e-45f, -65504.f, 7.5f, -0.f, 6.f};
  const float kLogits[] = {1.f, 2.f, 0.5f, -1.f, -3.f, 0.f};
  const Tensor pred = Tensor::from_vector({6}, {std::begin(kPred), std::end(kPred)});
  const Tensor logits =
      Tensor::from_vector({6}, {std::begin(kLogits), std::end(kLogits)});
  const Tensor recon = nc::core::apply_segmentation_mask(pred, logits, 0.5f);
  for (std::int64_t i = 0; i < 6; ++i) {
    const float got = recon[i], want = logits[i] > 0.f ? pred[i] : 0.f;
    EXPECT_EQ(std::memcmp(&got, &want, sizeof want), 0) << "voxel " << i;
  }
}

TEST(DynamicBalancing, CoefficientRecurrence) {
  // c_{t+1} = 0.5 c_t + (rho_r / rho_s) * 1.5, c_0 = 2000 (§2.5).
  EXPECT_NEAR(nc::core::next_seg_coefficient(2000.0, 1.0, 1.0), 1001.5, 1e-9);
  EXPECT_NEAR(nc::core::next_seg_coefficient(100.0, 0.5, 2.0), 50.0 + 6.0, 1e-9);
  // Fixed point: c* = 3 rho_r / rho_s.
  double c = 2000.0;
  for (int i = 0; i < 60; ++i) c = nc::core::next_seg_coefficient(c, 2.0, 4.0);
  EXPECT_NEAR(c, 3.0 * 4.0 / 2.0, 1e-6);
}

TEST(AdamW, ConvergesOnQuadratic) {
  // Minimize f(w) = ||w - target||^2 with AdamW (weight decay off).
  nc::core::Param w("w", Tensor({8}));
  const Tensor target = nc::testref::random_tensor({8}, 57);
  nc::core::AdamWConfig cfg;
  cfg.lr = 0.05;
  cfg.weight_decay = 0.0;
  nc::core::AdamW opt({&w}, cfg);
  for (int step = 0; step < 500; ++step) {
    for (std::int64_t i = 0; i < 8; ++i) {
      w.grad[i] = 2.f * (w.value[i] - target[i]);
    }
    opt.step();
    nc::core::zero_grads({&w});
  }
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_NEAR(w.value[i], target[i], 1e-2);
}

TEST(AdamW, WeightDecayShrinksWeightsWithZeroGrad) {
  nc::core::Param w("w", Tensor::full({4}, 10.f));
  nc::core::AdamWConfig cfg;
  cfg.lr = 0.1;
  cfg.weight_decay = 0.1;
  nc::core::AdamW opt({&w}, cfg);
  // Gradient identically zero: the only effect is decoupled decay.
  opt.step();
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.value[i], 10.f * (1.f - 0.1f * 0.1f), 1e-5);
  }
}

TEST(StepDecaySchedule, PaperSchedules) {
  // BCAE++/HT: constant for 100 epochs, then x0.95 every 20 (§2.5).
  nc::core::StepDecaySchedule s3d(1e-3, 100, 20);
  EXPECT_DOUBLE_EQ(s3d.lr_for_epoch(0), 1e-3);
  EXPECT_DOUBLE_EQ(s3d.lr_for_epoch(99), 1e-3);
  EXPECT_DOUBLE_EQ(s3d.lr_for_epoch(100), 1e-3 * 0.95);
  EXPECT_DOUBLE_EQ(s3d.lr_for_epoch(119), 1e-3 * 0.95);
  EXPECT_DOUBLE_EQ(s3d.lr_for_epoch(120), 1e-3 * 0.95 * 0.95);
  // BCAE-2D: constant 50, then every 10 (§2.5).
  nc::core::StepDecaySchedule s2d(1e-3, 50, 10);
  EXPECT_DOUBLE_EQ(s2d.lr_for_epoch(49), 1e-3);
  EXPECT_DOUBLE_EQ(s2d.lr_for_epoch(50), 1e-3 * 0.95);
  EXPECT_NEAR(s2d.lr_for_epoch(499), 1e-3 * std::pow(0.95, 45), 1e-12);
}

}  // namespace
