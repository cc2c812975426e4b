#include "core/im2col.hpp"

namespace nc::core {

// col2vol parallelizes over *input channels*: every column row
// (c, kz, ky, kx) with the same c scatters into the same channel volume, so
// binning rows by channel keeps writes disjoint across threads without
// atomics.
void col2vol_3d(const float* cols, const Conv3dGeom& g, float* out) {
  const std::int64_t od = g.out_d(), oh = g.out_h(), ow = g.out_w();
  util::parallel_for(
      0, g.c,
      [&](std::int64_t c_i) {
        float* out_c = out + c_i * g.d * g.h * g.w;
        for (std::int64_t kd_i = 0; kd_i < g.kd; ++kd_i) {
          for (std::int64_t kh_i = 0; kh_i < g.kh; ++kh_i) {
            for (std::int64_t kw_i = 0; kw_i < g.kw; ++kw_i) {
              const std::int64_t r =
                  ((c_i * g.kd + kd_i) * g.kh + kh_i) * g.kw + kw_i;
              const float* src = cols + r * (od * oh * ow);
              for (std::int64_t oz = 0; oz < od; ++oz) {
                const std::int64_t iz = oz * g.sd - g.pd + kd_i;
                if (iz < 0 || iz >= g.d) {
                  src += oh * ow;
                  continue;
                }
                for (std::int64_t oy = 0; oy < oh; ++oy) {
                  const std::int64_t iy = oy * g.sh - g.ph + kh_i;
                  if (iy < 0 || iy >= g.h) {
                    src += ow;
                    continue;
                  }
                  float* out_row = out_c + (iz * g.h + iy) * g.w;
                  for (std::int64_t ox = 0; ox < ow; ++ox) {
                    const std::int64_t ix = ox * g.sw - g.pw + kw_i;
                    if (ix >= 0 && ix < g.w) out_row[ix] += src[ox];
                  }
                  src += ow;
                }
              }
            }
          }
        }
      },
      util::grain_for(g.kd * g.kh * g.kw * od * oh * ow));
}

}  // namespace nc::core
