#include "core/act.hpp"

#include <cmath>

#include "util/parallel.hpp"

namespace nc::core {

namespace {
constexpr std::int64_t kGrain = 1 << 15;
}

Tensor ReLU::forward(const Tensor& x, Mode mode) {
  Tensor out(x.shape());
  const float* xp = x.data();
  float* op = out.data();
  util::parallel_for(
      0, x.numel(), [&](std::int64_t i) { op[i] = blend(xp[i] > 0.f, xp[i], 0.f); },
      kGrain);
  if (mode == Mode::kTrain) cached_input_ = x;
  return out;
}

Tensor ReLU::backward(const Tensor& gy) {
  Tensor gx(gy.shape());
  const float* xp = cached_input_.data();
  const float* gp = gy.data();
  float* op = gx.data();
  util::parallel_for(
      0, gy.numel(),
      [&](std::int64_t i) { op[i] = blend(xp[i] > 0.f, gp[i], 0.f); }, kGrain);
  cached_input_ = Tensor();
  return gx;
}

Tensor LeakyReLU::forward(const Tensor& x, Mode mode) {
  Tensor out(x.shape());
  const float* xp = x.data();
  float* op = out.data();
  const float slope = slope_;
  util::parallel_for(
      0, x.numel(),
      [&](std::int64_t i) { op[i] = leaky_relu(xp[i], slope); }, kGrain);
  if (mode == Mode::kTrain) cached_input_ = x;
  return out;
}

Tensor LeakyReLU::backward(const Tensor& gy) {
  Tensor gx(gy.shape());
  const float* xp = cached_input_.data();
  const float* gp = gy.data();
  float* op = gx.data();
  const float slope = slope_;
  util::parallel_for(
      0, gy.numel(),
      [&](std::int64_t i) { op[i] = blend(xp[i] > 0.f, gp[i], slope * gp[i]); },
      kGrain);
  cached_input_ = Tensor();
  return gx;
}

Tensor Sigmoid::forward(const Tensor& x, Mode mode) {
  Tensor out(x.shape());
  const float* xp = x.data();
  float* op = out.data();
  util::parallel_for(
      0, x.numel(),
      [&](std::int64_t i) { op[i] = 1.f / (1.f + std::exp(-xp[i])); }, kGrain);
  if (mode == Mode::kTrain) cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& gy) {
  Tensor gx(gy.shape());
  const float* yp = cached_output_.data();
  const float* gp = gy.data();
  float* op = gx.data();
  util::parallel_for(
      0, gy.numel(),
      [&](std::int64_t i) { op[i] = gp[i] * yp[i] * (1.f - yp[i]); }, kGrain);
  cached_output_ = Tensor();
  return gx;
}

Tensor OutputTransform::forward(const Tensor& x, Mode mode) {
  Tensor out(x.shape());
  const float* xp = x.data();
  float* op = out.data();
  const float offset = offset_, scale = scale_, clamp = clamp_;
  util::parallel_for(
      0, x.numel(),
      [&](std::int64_t i) {
        op[i] = offset + scale * std::exp(std::min(xp[i], clamp));
      },
      kGrain);
  if (mode == Mode::kTrain) cached_output_ = out;
  return out;
}

Tensor OutputTransform::backward(const Tensor& gy) {
  // dT/dx = scale * exp(x) = y - offset (zero where the clamp saturated the
  // input — negligible in practice, matches a clamped-exp autograd).
  Tensor gx(gy.shape());
  const float* yp = cached_output_.data();
  const float* gp = gy.data();
  float* op = gx.data();
  const float offset = offset_;
  util::parallel_for(
      0, gy.numel(),
      [&](std::int64_t i) { op[i] = gp[i] * (yp[i] - offset); }, kGrain);
  cached_output_ = Tensor();
  return gx;
}

}  // namespace nc::core
