#include "core/ops.hpp"

#include <cmath>

#include "util/parallel.hpp"

namespace nc::core {

namespace {
constexpr std::int64_t kGrain = 1 << 15;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

void fill(Tensor& t, float value) {
  float* p = t.data();
  util::parallel_for(0, t.numel(), [&](std::int64_t i) { p[i] = value; }, kGrain);
}

void scale(Tensor& t, float alpha) {
  float* p = t.data();
  util::parallel_for(0, t.numel(), [&](std::int64_t i) { p[i] *= alpha; }, kGrain);
}

void add_scalar(Tensor& t, float alpha) {
  float* p = t.data();
  util::parallel_for(0, t.numel(), [&](std::int64_t i) { p[i] += alpha; }, kGrain);
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  check_same_shape(x, y, "axpy");
  const float* xp = x.data();
  float* yp = y.data();
  util::parallel_for(
      0, x.numel(), [&](std::int64_t i) { yp[i] += alpha * xp[i]; }, kGrain);
}

void add_inplace(Tensor& y, const Tensor& x) { axpy(1.f, x, y); }

void mul_inplace(Tensor& y, const Tensor& x) {
  check_same_shape(x, y, "mul_inplace");
  const float* xp = x.data();
  float* yp = y.data();
  util::parallel_for(
      0, x.numel(), [&](std::int64_t i) { yp[i] *= xp[i]; }, kGrain);
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a.clone();
  add_inplace(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out(a.shape());
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  util::parallel_for(
      0, a.numel(), [&](std::int64_t i) { op[i] = ap[i] - bp[i]; }, kGrain);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out = a.clone();
  mul_inplace(out, b);
  return out;
}

double sum(const Tensor& t) {
  const float* p = t.data();
  const std::int64_t n = t.numel();
  double acc = 0.0;
#ifdef _OPENMP
#pragma omp parallel for reduction(+ : acc) schedule(static) \
    if (n > (1 << 16) && util::may_fork())
#endif
  for (std::int64_t i = 0; i < n; ++i) acc += static_cast<double>(p[i]);
  return acc;
}

double mean(const Tensor& t) {
  return t.numel() ? sum(t) / static_cast<double>(t.numel()) : 0.0;
}

float max_value(const Tensor& t) {
  if (t.empty()) throw std::invalid_argument("max_value: empty tensor");
  const float* p = t.data();
  float m = p[0];
  for (std::int64_t i = 1; i < t.numel(); ++i) m = std::max(m, p[i]);
  return m;
}

float min_value(const Tensor& t) {
  if (t.empty()) throw std::invalid_argument("min_value: empty tensor");
  const float* p = t.data();
  float m = p[0];
  for (std::int64_t i = 1; i < t.numel(); ++i) m = std::min(m, p[i]);
  return m;
}

double mean_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mean_abs_diff");
  const float* ap = a.data();
  const float* bp = b.data();
  const std::int64_t n = a.numel();
  double acc = 0.0;
#ifdef _OPENMP
#pragma omp parallel for reduction(+ : acc) schedule(static) \
    if (n > (1 << 16) && util::may_fork())
#endif
  for (std::int64_t i = 0; i < n; ++i)
    acc += std::abs(static_cast<double>(ap[i]) - static_cast<double>(bp[i]));
  return n ? acc / static_cast<double>(n) : 0.0;
}

std::int64_t count_greater(const Tensor& t, float threshold) {
  const float* p = t.data();
  const std::int64_t n = t.numel();
  std::int64_t count = 0;
#ifdef _OPENMP
#pragma omp parallel for reduction(+ : count) schedule(static) \
    if (n > (1 << 16) && util::may_fork())
#endif
  for (std::int64_t i = 0; i < n; ++i) count += (p[i] > threshold) ? 1 : 0;
  return count;
}

}  // namespace nc::core
