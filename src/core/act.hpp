/// \file act.hpp
/// \brief Elementwise activation layers.
///
/// Includes the BCAE regression-output transformation T(x) = 6 + 3·exp(x)
/// (§2.2): it pins every regression prediction above the zero-suppression
/// edge at log-ADC 6, so zeros in the reconstruction can only come from the
/// segmentation mask.
///
/// The piecewise layers (ReLU, LeakyReLU, forward and backward) pick between
/// two values per element with `blend`, not with a branch: GCC 12 at -O3
/// leaves `x > 0.f ? x : slope * x` as a scalar compare-and-jump loop ("not
/// vectorized: control flow in loop"), and on conv outputs, about half of
/// them negative in no pattern, that jump mispredicts.  A bit-mask blend has
/// no control flow, vectorizes, and gives the same bits for every input.
#pragma once

#include <bit>
#include <cstdint>

#include "core/layer.hpp"

namespace nc::core {

/// `take_a ? a : b` as a bit-mask blend, with no branch to mispredict.  Both
/// values are computed first; the result has exactly the bits of the chosen
/// one.
inline float blend(bool take_a, float a, float b) {
  const std::uint32_t mask = 0u - static_cast<std::uint32_t>(take_a);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & mask) |
                              (std::bit_cast<std::uint32_t>(b) & ~mask));
}

/// x > 0.f ? x : slope * x, branch-free: the same bits for every x and slope,
/// ±0 and products that underflow to -0 included.
inline float leaky_relu(float x, float slope) {
  return blend(x > 0.f, x, slope * x);
}

/// max(x, 0).
class ReLU final : public Layer {
 public:
  explicit ReLU(std::string label = "relu") : label_(std::move(label)) {}
  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return label_; }

 private:
  std::string label_;
  Tensor cached_input_;
};

/// x > 0 ? x : slope * x.  Default slope matches PyTorch (0.01).
class LeakyReLU final : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.01f, std::string label = "leaky_relu")
      : slope_(slope), label_(std::move(label)) {}
  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return label_; }

  /// The negative-side slope; a conv before this layer applies it in its
  /// own store in the eval modes (ConvEpilogue, core/conv.hpp).
  float slope() const { return slope_; }

 private:
  float slope_;
  std::string label_;
  Tensor cached_input_;
};

/// 1 / (1 + exp(-x)).
class Sigmoid final : public Layer {
 public:
  explicit Sigmoid(std::string label = "sigmoid") : label_(std::move(label)) {}
  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return label_; }

 private:
  std::string label_;
  Tensor cached_output_;
};

/// Pass-through (the regression decoder's output activation in Algorithm 2).
class Identity final : public Layer {
 public:
  explicit Identity(std::string label = "identity") : label_(std::move(label)) {}
  Tensor forward(const Tensor& x, Mode) override { return x; }
  Tensor backward(const Tensor& gy) override { return gy; }
  std::string name() const override { return label_; }

 private:
  std::string label_;
};

/// T(x) = offset + scale * exp(x)  — BCAE regression output transform with
/// offset 6, scale 3 per the paper.  exp input is clamped at `clamp` to keep
/// half-precision evaluation finite on untrained networks.
class OutputTransform final : public Layer {
 public:
  explicit OutputTransform(float offset = 6.f, float scale = 3.f,
                           float clamp = 4.f,
                           std::string label = "output_transform")
      : offset_(offset), scale_(scale), clamp_(clamp), label_(std::move(label)) {}
  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return label_; }

 private:
  float offset_, scale_, clamp_;
  std::string label_;
  Tensor cached_output_;
};

}  // namespace nc::core
