#include "core/pool.hpp"

#include "util/parallel.hpp"

namespace nc::core {

namespace {

/// One (h, w) plane of a k x k, stride-k average pool.  Each output sums its
/// window from +0 in row-major order, (((0.f + r0[0]) + r0[1]) + r1[0]) +
/// r1[1] for k = 2, then multiplies by `inv`.  The loop runs across output
/// columns, so it vectorizes when K fixes k at compile time (K = 0 reads k
/// at run time); an output's sum is a chain of dependent adds, and summing
/// one output at a time would wait on that chain.
template <std::int64_t K>
void avg_pool_plane(const float* in, std::int64_t w, std::int64_t k,
                    std::int64_t oh, std::int64_t ow, float inv, float* out) {
  const std::int64_t kk = K > 0 ? K : k;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const float* rows = in + oy * kk * w;
    float* orow = out + oy * ow;
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      float acc = 0.f;
      for (std::int64_t ky = 0; ky < kk; ++ky) {
        for (std::int64_t kx = 0; kx < kk; ++kx) {
          acc += rows[ky * w + ox * kk + kx];
        }
      }
      orow[ox] = acc * inv;
    }
  }
}

}  // namespace

Tensor AvgPool2d::forward(const Tensor& x, Mode mode) {
  if (x.ndim() != 4) throw std::invalid_argument(label_ + ": expected 4-D input");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (h % k_ != 0 || w % k_ != 0) {
    throw std::invalid_argument(label_ + ": spatial dims must be divisible by kernel");
  }
  const std::int64_t oh = h / k_, ow = w / k_;
  Tensor out({n, c, oh, ow});
  const float inv = 1.f / static_cast<float>(k_ * k_);
  const float* xp = x.data();
  float* op = out.data();
  util::parallel_for(
      0, n * c,
      [&](std::int64_t plane) {
        const float* in_p = xp + plane * h * w;
        float* out_p = op + plane * oh * ow;
        if (k_ == 2) {
          avg_pool_plane<2>(in_p, w, k_, oh, ow, inv, out_p);
        } else {
          avg_pool_plane<0>(in_p, w, k_, oh, ow, inv, out_p);
        }
      },
      1);
  if (mode == Mode::kTrain) cached_in_shape_ = x.shape();
  return out;
}

Tensor AvgPool2d::backward(const Tensor& gy) {
  const Shape& in_shape = cached_in_shape_;
  const std::int64_t n = in_shape[0], c = in_shape[1], h = in_shape[2], w = in_shape[3];
  const std::int64_t oh = h / k_, ow = w / k_;
  Tensor gx(in_shape);
  const float inv = 1.f / static_cast<float>(k_ * k_);
  const float* gp = gy.data();
  float* op = gx.data();
  util::parallel_for(
      0, n * c,
      [&](std::int64_t plane) {
        const float* g_p = gp + plane * oh * ow;
        float* out_p = op + plane * h * w;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const float g = g_p[oy * ow + ox] * inv;
            for (std::int64_t ky = 0; ky < k_; ++ky) {
              float* row = out_p + (oy * k_ + ky) * w + ox * k_;
              for (std::int64_t kx = 0; kx < k_; ++kx) row[kx] = g;
            }
          }
        }
      },
      1);
  return gx;
}

Tensor Upsample2d::forward(const Tensor& x, Mode mode) {
  if (x.ndim() != 4) throw std::invalid_argument(label_ + ": expected 4-D input");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = h * scale_, ow = w * scale_;
  Tensor out({n, c, oh, ow});
  const float* xp = x.data();
  float* op = out.data();
  util::parallel_for(
      0, n * c,
      [&](std::int64_t plane) {
        const float* in_p = xp + plane * h * w;
        float* out_p = op + plane * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const float* in_row = in_p + (oy / scale_) * w;
          float* out_row = out_p + oy * ow;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            out_row[ox] = in_row[ox / scale_];
          }
        }
      },
      1);
  if (mode == Mode::kTrain) cached_in_shape_ = x.shape();
  return out;
}

Tensor Upsample2d::backward(const Tensor& gy) {
  const Shape& in_shape = cached_in_shape_;
  const std::int64_t n = in_shape[0], c = in_shape[1], h = in_shape[2], w = in_shape[3];
  const std::int64_t oh = h * scale_, ow = w * scale_;
  Tensor gx(in_shape);
  const float* gp = gy.data();
  float* op = gx.data();
  util::parallel_for(
      0, n * c,
      [&](std::int64_t plane) {
        const float* g_p = gp + plane * oh * ow;
        float* out_p = op + plane * h * w;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const float* g_row = g_p + oy * ow;
          float* out_row = out_p + (oy / scale_) * w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            out_row[ox / scale_] += g_row[ox];
          }
        }
      },
      1);
  return gx;
}

Tensor AvgPool3d::forward(const Tensor& x, Mode mode) {
  if (x.ndim() != 5) throw std::invalid_argument(label_ + ": expected 5-D input");
  const std::int64_t n = x.dim(0), c = x.dim(1), d = x.dim(2), h = x.dim(3), w = x.dim(4);
  const auto [kd, kh, kw] = k_;
  if (d % kd != 0 || h % kh != 0 || w % kw != 0) {
    throw std::invalid_argument(label_ + ": dims must be divisible by kernel");
  }
  const std::int64_t od = d / kd, oh = h / kh, ow = w / kw;
  Tensor out({n, c, od, oh, ow});
  const float inv = 1.f / static_cast<float>(kd * kh * kw);
  const float* xp = x.data();
  float* op = out.data();
  util::parallel_for(
      0, n * c,
      [&](std::int64_t plane) {
        const float* in_p = xp + plane * d * h * w;
        float* out_p = op + plane * od * oh * ow;
        for (std::int64_t oz = 0; oz < od; ++oz) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              float acc = 0.f;
              for (std::int64_t kz = 0; kz < kd; ++kz) {
                for (std::int64_t ky = 0; ky < kh; ++ky) {
                  const float* row =
                      in_p + ((oz * kd + kz) * h + oy * kh + ky) * w + ox * kw;
                  for (std::int64_t kx = 0; kx < kw; ++kx) acc += row[kx];
                }
              }
              out_p[(oz * oh + oy) * ow + ox] = acc * inv;
            }
          }
        }
      },
      1);
  if (mode == Mode::kTrain) cached_in_shape_ = x.shape();
  return out;
}

Tensor AvgPool3d::backward(const Tensor& gy) {
  const Shape& in_shape = cached_in_shape_;
  const std::int64_t n = in_shape[0], c = in_shape[1], d = in_shape[2],
                     h = in_shape[3], w = in_shape[4];
  const auto [kd, kh, kw] = k_;
  const std::int64_t od = d / kd, oh = h / kh, ow = w / kw;
  Tensor gx(in_shape);
  const float inv = 1.f / static_cast<float>(kd * kh * kw);
  const float* gp = gy.data();
  float* op = gx.data();
  util::parallel_for(
      0, n * c,
      [&](std::int64_t plane) {
        const float* g_p = gp + plane * od * oh * ow;
        float* out_p = op + plane * d * h * w;
        for (std::int64_t oz = 0; oz < od; ++oz) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const float g = g_p[(oz * oh + oy) * ow + ox] * inv;
              for (std::int64_t kz = 0; kz < kd; ++kz) {
                for (std::int64_t ky = 0; ky < kh; ++ky) {
                  float* row =
                      out_p + ((oz * kd + kz) * h + oy * kh + ky) * w + ox * kw;
                  for (std::int64_t kx = 0; kx < kw; ++kx) row[kx] = g;
                }
              }
            }
          }
        }
      },
      1);
  return gx;
}

Tensor Upsample3d::forward(const Tensor& x, Mode mode) {
  if (x.ndim() != 5) throw std::invalid_argument(label_ + ": expected 5-D input");
  const std::int64_t n = x.dim(0), c = x.dim(1), d = x.dim(2), h = x.dim(3), w = x.dim(4);
  const auto [sd, sh, sw] = scale_;
  const std::int64_t od = d * sd, oh = h * sh, ow = w * sw;
  Tensor out({n, c, od, oh, ow});
  const float* xp = x.data();
  float* op = out.data();
  util::parallel_for(
      0, n * c,
      [&](std::int64_t plane) {
        const float* in_p = xp + plane * d * h * w;
        float* out_p = op + plane * od * oh * ow;
        for (std::int64_t oz = 0; oz < od; ++oz) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            const float* in_row = in_p + ((oz / sd) * h + oy / sh) * w;
            float* out_row = out_p + (oz * oh + oy) * ow;
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              out_row[ox] = in_row[ox / sw];
            }
          }
        }
      },
      1);
  if (mode == Mode::kTrain) cached_in_shape_ = x.shape();
  return out;
}

Tensor Upsample3d::backward(const Tensor& gy) {
  const Shape& in_shape = cached_in_shape_;
  const std::int64_t n = in_shape[0], c = in_shape[1], d = in_shape[2],
                     h = in_shape[3], w = in_shape[4];
  const auto [sd, sh, sw] = scale_;
  const std::int64_t od = d * sd, oh = h * sh, ow = w * sw;
  Tensor gx(in_shape);
  const float* gp = gy.data();
  float* op = gx.data();
  util::parallel_for(
      0, n * c,
      [&](std::int64_t plane) {
        const float* g_p = gp + plane * od * oh * ow;
        float* out_p = op + plane * d * h * w;
        for (std::int64_t oz = 0; oz < od; ++oz) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            const float* g_row = g_p + (oz * oh + oy) * ow;
            float* out_row = out_p + ((oz / sd) * h + oy / sh) * w;
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              out_row[ox / sw] += g_row[ox];
            }
          }
        }
      },
      1);
  return gx;
}

}  // namespace nc::core
