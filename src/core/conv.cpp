#include "core/conv.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "core/act.hpp"
#include "core/gemm.hpp"
#include "core/init.hpp"
#include "core/ops.hpp"
#include "core/profiler.hpp"
#include "core/simd_dispatch.hpp"
#include "util/timer.hpp"

namespace nc::core {

namespace {

// Per-thread scratch for column matrices, haloed volumes and padded-grid
// results.  thread_local gives every OpenMP worker its own buffer; capacity
// is retained across calls so steady-state inference performs no
// allocation.
std::vector<float>& f32_scratch() {
  thread_local std::vector<float> buf;
  return buf;
}
std::vector<util::half>& f16_scratch() {
  thread_local std::vector<util::half> buf;
  return buf;
}
// Second fp16 buffer: the half path needs the converted input and its
// haloed copy (or column matrix) alive at the same time.
std::vector<util::half>& f16_scratch_b() {
  thread_local std::vector<util::half> buf;
  return buf;
}
std::vector<std::int8_t>& i8_scratch() {
  thread_local std::vector<std::int8_t> buf;
  return buf;
}
// Second int8 buffer: the int8 path needs the input codes and their haloed
// copy (or column matrix) alive at the same time.
std::vector<std::int8_t>& i8_scratch_b() {
  thread_local std::vector<std::int8_t> buf;
  return buf;
}
// Voxel-major accumulator of the sparse lowering, cache-line aligned so
// that each scatter row of 16 floats sits in one line.
util::AlignedVector<float>& acc_scratch() {
  thread_local util::AlignedVector<float> buf;
  return buf;
}

/// True iff x[0, n) holds at most `limit` nonzeros.  Stops once the count
/// passes `limit`, so a dense input costs about `limit` reads.
bool nonzeros_at_most(const float* x, std::int64_t n, std::int64_t limit) {
  constexpr std::int64_t kChunk = 256;
  std::int64_t count = 0;
  for (std::int64_t i0 = 0; i0 < n; i0 += kChunk) {
    const std::int64_t i1 = std::min(n, i0 + kChunk);
    for (std::int64_t i = i0; i < i1; ++i) count += (x[i] != 0.f) ? 1 : 0;
    if (count > limit) return false;
  }
  return true;
}

/// Quantize one (c, d, h, w) input sample of a conv with geometry `g` into
/// int8 codes `q`, and return the scale.  The scale is `quant_scale` of the
/// largest |x| over the voxels some window covers (`volume_taps` count > 0
/// on every axis).  That is the largest magnitude in the sample's column
/// matrix, so lowering these codes gives exactly the codes of quantizing the
/// column matrix.
/// When every voxel is covered, as in every BCAE layer, it is one max_abs.
float quantize_covered(const float* x, const Conv3dGeom& g, std::int8_t* q) {
  using simd::detail::AxisTaps;
  const simd::Kernels& ker = simd::kernels();
  thread_local std::vector<AxisTaps> taps;
  const simd::detail::VolumeTaps t = simd::detail::volume_taps(g, taps);
  const std::int64_t numel = g.c * g.d * g.h * g.w;
  float max_abs = 0.f;
  if (std::all_of(taps.begin(), taps.end(),
                  [](const AxisTaps& a) { return a.count > 0; })) {
    max_abs = ker.max_abs(x, numel);
  } else {
    for (std::int64_t c = 0; c < g.c; ++c) {
      for (std::int64_t z = 0; z < g.d; ++z) {
        if (t.z[z].count == 0) continue;
        for (std::int64_t y = 0; y < g.h; ++y) {
          if (t.y[y].count == 0) continue;
          const float* row = x + ((c * g.d + z) * g.h + y) * g.w;
          for (std::int64_t i = 0; i < g.w; ++i) {
            if (t.x[i].count > 0) max_abs = std::max(max_abs, std::abs(row[i]));
          }
        }
      }
    }
  }
  const float scale = quant_scale(max_abs);
  ker.quantize_scaled(x, numel, 1.f / scale, q);
  return scale;
}

/// Most nonzeros a sample may hold for the sparse lowering in `mode`; -1
/// when the mode or geometry must stay dense.
std::int64_t sparse_nonzero_limit(Mode mode, const Conv3dGeom& g) {
  double max_density = 0.0;
  if (mode == Mode::kEvalHalf) {
    max_density = kSparseMaxDensityHalf;
  } else if (mode == Mode::kEvalInt8) {
    // fp32 sums of int8 x int8 products must stay exact integers.
    if (g.rows() * 127 * 127 >= (std::int64_t{1} << 24)) return -1;
    max_density = kSparseMaxDensityInt8;
  } else {
    return -1;
  }
  return static_cast<std::int64_t>(
      max_density * static_cast<double>(g.c * g.d * g.h * g.w));
}

/// (rows, out_c) fp32 slab of an (out_c, rows) half or int8 weight, cache-line
/// aligned like the accumulator it is added into.
template <typename T>
util::AlignedVector<float> widen_slab(const T* w, std::int64_t out_c,
                                      std::int64_t rows) {
  util::AlignedVector<float> slab(static_cast<std::size_t>(rows * out_c));
  for (std::int64_t o = 0; o < out_c; ++o) {
    for (std::int64_t r = 0; r < rows; ++r) {
      slab[static_cast<std::size_t>(r * out_c + o)] =
          static_cast<float>(w[o * rows + r]);
    }
  }
  return slab;
}

/// out (out_c, cols) = the transpose of a pixel-major (cols, out_c)
/// accumulator.  With `row_scales`, row o is also multiplied by
/// row_scales[o] * act_scale, the expression `qgemm` scales its int32 sums
/// with.
void store_transposed(const float* acc, std::int64_t cols, std::int64_t out_c,
                      const float* row_scales, float act_scale, float* out) {
  constexpr std::int64_t kBlock = 16;  // pixels per block: stays in L1
  for (std::int64_t p0 = 0; p0 < cols; p0 += kBlock) {
    const std::int64_t p1 = std::min(cols, p0 + kBlock);
    for (std::int64_t o = 0; o < out_c; ++o) {
      float* dst = out + o * cols;
      if (row_scales) {
        const float scale = row_scales[o] * act_scale;
        for (std::int64_t p = p0; p < p1; ++p) {
          dst[p] = acc[p * out_c + o] * scale;
        }
      } else {
        for (std::int64_t p = p0; p < p1; ++p) dst[p] = acc[p * out_c + o];
      }
    }
  }
}

/// One run of the epilogue: dst[j] = act(src[j] + b + res[j]).
template <bool kBias, bool kResidual, bool kAct>
inline void epilogue_run(const float* src, float* dst, const float* res,
                         std::int64_t len, float b, float slope) {
  for (std::int64_t j = 0; j < len; ++j) {
    float v = src[j];
    if constexpr (kBias) v = v + b;
    if constexpr (kResidual) v = v + res[j];
    if constexpr (kAct) v = leaky_relu(v, slope);
    dst[j] = v;
  }
}

/// apply_epilogue with its steps chosen at compile time, so the element
/// loop holds no test and vectorizes.  A packed source is one run per
/// channel, a padded grid one run per output row.
template <bool kBias, bool kResidual, bool kAct>
void epilogue_rows(const float* acc, const EpilogueGrid& grid, float* out,
                   std::int64_t out_c, const float* bias, const float* residual,
                   float slope) {
  const bool packed = grid.is_packed();
  const std::int64_t plane = grid.d * grid.h * grid.w;
  const std::int64_t len = packed ? plane : grid.w;
  const std::int64_t runs = packed ? 1 : grid.d * grid.h;
  for (std::int64_t o = 0; o < out_c; ++o) {
    const float b = kBias ? bias[o] : 0.f;
    for (std::int64_t r = 0; r < runs; ++r) {
      const std::int64_t at = o * plane + r * grid.w;
      const float* res = kResidual ? residual + at : nullptr;
      if (acc == out) {  // one pointer, so the loop needs no alias check
        epilogue_run<kBias, kResidual, kAct>(out + at, out + at, res, len, b,
                                             slope);
      } else {
        const float* src = acc + o * grid.cols + (r / grid.h) * grid.plane +
                           (r % grid.h) * grid.row;
        epilogue_run<kBias, kResidual, kAct>(src, out + at, res, len, b, slope);
      }
    }
  }
}

/// The residual data of a fused call, or null; checks `ep` against the mode
/// and the output.
const float* epilogue_residual(const std::string& label, Mode mode,
                               const ConvEpilogue& ep, const Tensor& out) {
  if (mode == Mode::kTrain && !ep.empty()) {
    throw std::logic_error(label +
                           ": a fused epilogue needs an eval mode (backward "
                           "needs the pre-activation output)");
  }
  if (!ep.residual) return nullptr;
  if (ep.residual->shape() != out.shape()) {
    throw std::invalid_argument(label + ": residual " +
                                shape_to_string(ep.residual->shape()) +
                                " does not match the output " +
                                shape_to_string(out.shape()));
  }
  return ep.residual->data();
}

void accum_bias_grad(const float* gy_mat, float* gb, std::int64_t rows,
                     std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = gy_mat + r * cols;
    double acc = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) acc += static_cast<double>(row[j]);
    gb[r] += static_cast<float>(acc);
  }
}

/// (n, c, d, h, w) as the shape of a rank-2 or rank-3 tensor; rank 2 drops
/// d, which is 1 there.
Shape conv_shape(int rank, std::int64_t n, std::int64_t c,
                 const std::array<std::int64_t, 3>& dhw) {
  if (rank == 2) return {n, c, dhw[1], dhw[2]};
  return {n, c, dhw[0], dhw[1], dhw[2]};
}

/// The (d, h, w) extents of `x`, which must be (N, c, [D,] H, W) for a layer
/// of `rank`; d = 1 for rank 2.
std::array<std::int64_t, 3> spatial_dims(const Tensor& x, int rank,
                                         std::int64_t c,
                                         const std::string& label) {
  if (x.ndim() != rank + 2 || x.dim(1) != c) {
    throw std::invalid_argument(
        label + ": expected (N, " + std::to_string(c) +
        (rank == 3 ? ", D, H, W), got " : ", H, W), got ") +
        shape_to_string(x.shape()));
  }
  return {rank == 3 ? x.dim(2) : 1, x.dim(rank), x.dim(rank + 1)};
}

/// The geometry of a conv with `c` input channels over extents `dhw`.
Conv3dGeom conv_geom(std::int64_t c, const std::array<std::int64_t, 3>& dhw,
                     const std::array<std::int64_t, 3>& k,
                     const std::array<std::int64_t, 3>& s,
                     const std::array<std::int64_t, 3>& p) {
  Conv3dGeom g;
  g.c = c;
  g.d = dhw[0];
  g.h = dhw[1];
  g.w = dhw[2];
  g.kd = k[0];
  g.kh = k[1];
  g.kw = k[2];
  g.sd = s[0];
  g.sh = s[1];
  g.sw = s[2];
  g.pd = p[0];
  g.ph = p[1];
  g.pw = p[2];
  return g;
}

}  // namespace

void apply_epilogue(const float* acc, const EpilogueGrid& grid, float* out,
                    std::int64_t out_c, const float* bias,
                    const float* residual, std::optional<float> leaky_slope) {
  using Pass = void (*)(const float*, const EpilogueGrid&, float*,
                        std::int64_t, const float*, const float*, float);
  // Indexed by (bias, residual, activation) as three bits; no step is a
  // copy, or nothing when `acc` is `out`.
  static constexpr Pass kPasses[8] = {
      &epilogue_rows<false, false, false>, &epilogue_rows<false, false, true>,
      &epilogue_rows<false, true, false>,  &epilogue_rows<false, true, true>,
      &epilogue_rows<true, false, false>,  &epilogue_rows<true, false, true>,
      &epilogue_rows<true, true, false>,   &epilogue_rows<true, true, true>};
  const int steps = (bias ? 4 : 0) | (residual ? 2 : 0) | (leaky_slope ? 1 : 0);
  if (steps == 0 && acc == out) return;
  kPasses[steps](acc, grid, out, out_c, bias, residual,
                 leaky_slope.value_or(0.f));
}

// ---------------------------------------------------------------------------
// ConvNd: Conv2d and Conv3d
// ---------------------------------------------------------------------------

ConvNd::ConvNd(int rank, std::int64_t in_c, std::int64_t out_c,
               std::array<std::int64_t, 3> kernel,
               std::array<std::int64_t, 3> stride,
               std::array<std::int64_t, 3> pad, bool with_bias, util::Rng& rng,
               std::string label)
    : rank_(rank),
      in_c_(in_c),
      out_c_(out_c),
      k_(kernel),
      s_(stride),
      p_(pad),
      weight_(label + ".weight", Tensor(conv_shape(rank, out_c, in_c, kernel))),
      label_(std::move(label)) {
  const std::int64_t fan_in = in_c * kernel[0] * kernel[1] * kernel[2];
  kaiming_normal(weight_.value, fan_in, rng);
  if (with_bias) {
    bias_.emplace(label_ + ".bias", Tensor({out_c}));
    uniform_init(bias_->value, 1.0 / std::sqrt(static_cast<double>(fan_in)), rng);
  }
}

Conv3dGeom ConvNd::geom_for(const Tensor& x) const {
  return conv_geom(in_c_, spatial_dims(x, rank_, in_c_, label_), k_, s_, p_);
}

Tensor ConvNd::forward_fused(const Tensor& x, Mode mode,
                             const ConvEpilogue& ep) {
  const Conv3dGeom g = geom_for(x);
  const std::int64_t n = x.dim(0);
  const std::int64_t rows = g.rows(), cols = g.cols();
  Tensor out(conv_shape(rank_, n, out_c_, {g.out_d(), g.out_h(), g.out_w()}));
  const float* residual = epilogue_residual(label_, mode, ep, out);

  if (mode == Mode::kTrain) cached_input_ = x;

  const bool half_mode = (mode == Mode::kEvalHalf);
  const HalfTensor* whalf =
      half_mode ? &weight_half_.get(
                      [&] { return HalfTensor::from_float(weight_.value); })
                : nullptr;
  const bool int8_mode = (mode == Mode::kEvalInt8);
  const QuantizedRows* wq =
      int8_mode ? &weight_q_.get([&] {
        return quantize_rows(weight_.value.data(), out_c_, rows);
      })
                : nullptr;

  const float* bias = bias_ ? bias_->value.data() : nullptr;
  const bool prof = Profiler::instance().enabled();
  util::Timer timer;

  const auto all = [](const std::array<std::int64_t, 3>& a, std::int64_t v) {
    return a[0] == v && a[1] == v && a[2] == v;
  };
  // The dense fp16 and int8 GEMMs read B row kk at b_rows[kk].  At stride 1
  // B is a zero-haloed copy of the sample, multiplied in place on the
  // padded-pitch grid (HaloGeom in im2col.hpp); a 1x1 unpadded conv's copy
  // is the sample itself.  Strided convs multiply vol2col_3d's column
  // matrix, as fp32 always does.
  const bool in_place = (half_mode || int8_mode) && all(s_, 1);
  const bool padded = g.pd + g.ph + g.pw > 0;
  const HaloGeom hg = in_place ? halo_geom(g) : HaloGeom{};
  const EpilogueGrid packed =
      EpilogueGrid::packed(g.out_d(), g.out_h(), g.out_w());
  const EpilogueGrid grid =
      in_place ? EpilogueGrid{packed.d, packed.h, packed.w, hg.pitch, hg.plane,
                              hg.cols}
               : packed;
  const std::int64_t dense_cols = grid.cols;
  const std::int64_t* b_rows = nullptr;
  if (half_mode || int8_mode) {
    thread_local std::vector<std::int64_t> table;
    table.resize(static_cast<std::size_t>(rows));
    if (in_place) {
      halo_row_offsets(g, table.data());
    } else {
      for (std::int64_t r = 0; r < rows; ++r) {
        table[static_cast<std::size_t>(r)] = r * cols;
      }
    }
    b_rows = table.data();
  }
  // The B operand for the sample `in` (binary16 or int8 codes), built in
  // `buf` unless it is `in` itself.
  const auto lower = [&](const auto* in, auto& buf) {
    if (in_place && !padded) return in;
    buf.resize(static_cast<std::size_t>(in_place ? in_c_ * hg.volume
                                                 : rows * cols));
    if (in_place) {
      pad_volume(in, g, buf.data());
    } else {
      vol2col_3d(in, g, buf.data());
    }
    return static_cast<decltype(in)>(buf.data());
  };
  const bool is_1x1 = all(k_, 1) && all(s_, 1) && all(p_, 0);
  const std::int64_t in_stride = in_c_ * g.d * g.h * g.w;
  const std::int64_t out_stride = out_c_ * cols;
  const std::int64_t sparse_limit = sparse_nonzero_limit(mode, g);
  // Work the sparse samples executed, for the profiler's FLOP count.
  std::atomic<std::int64_t> sparse_samples{0}, sparse_taps{0};
  util::parallel_for(
      0, n,
      [&](std::int64_t sample) {
        const float* in_s = x.data() + sample * in_stride;
        float* out_s = out.data() + sample * out_stride;
        // Where the GEMM stores, and its layout for the epilogue.
        float* acc = out_s;
        const EpilogueGrid* acc_grid = &packed;
        if (sparse_limit >= 0 &&
            nonzeros_at_most(in_s, in_stride, sparse_limit)) {
          ++sparse_samples;
          sparse_taps += forward_sparse(in_s, g, whalf, wq, out_s);
        } else if (half_mode || int8_mode) {
          acc_grid = &grid;
          if (!grid.is_packed()) {
            auto& accbuf = f32_scratch();
            accbuf.resize(static_cast<std::size_t>(out_c_ * dense_cols));
            acc = accbuf.data();
          }
          if (half_mode) {
            auto& inh = f16_scratch_b();
            inh.resize(static_cast<std::size_t>(in_stride));
            // Saturating cast: an activation past the fp16 range (untrained
            // or extreme weights, decoder heads especially) clamps to
            // +/-65504 instead of turning the rest of the forward
            // non-finite.
            util::float_to_half_sat_n(in_s, inh.data(), in_stride);
            hgemm(out_c_, dense_cols, rows, whalf->data(), rows,
                  lower(inh.data(), f16_scratch()), b_rows, acc, dense_cols);
          } else {
            // Quantize first, then copy or lower the codes: 1/(kd*kh*kw) of
            // the quantize work, and no fp32 copy.
            auto& q = i8_scratch();
            q.resize(static_cast<std::size_t>(in_stride));
            const float act_scale = quantize_covered(in_s, g, q.data());
            qgemm(out_c_, dense_cols, rows, wq->values.data(),
                  wq->scales.data(), lower(q.data(), i8_scratch_b()), b_rows,
                  act_scale, acc, dense_cols);
          }
        } else if (is_1x1) {
          // fp32: a 1x1 stride-1 unpadded conv's column matrix is its input.
          sgemm(false, false, out_c_, cols, rows, 1.f, weight_.value.data(),
                rows, in_s, cols, 0.f, out_s, cols);
        } else {
          auto& colbuf = f32_scratch();
          colbuf.resize(static_cast<std::size_t>(rows * cols));
          vol2col_3d(in_s, g, colbuf.data());
          sgemm(false, false, out_c_, cols, rows, 1.f, weight_.value.data(),
                rows, colbuf.data(), cols, 0.f, out_s, cols);
        }
        apply_epilogue(acc, *acc_grid, out_s, out_c_, bias,
                       residual ? residual + sample * out_stride : nullptr,
                       ep.leaky_slope);
      },
      // train: serial sample loop
      mode == Mode::kTrain ? n + 1 : util::grain_for(out_c_ * cols * rows));

  if (prof) {
    // The dense samples' GEMMs, on the padded-pitch grid when in place, and
    // the scatter's (voxel, tap) pairs: the work each lowering executed.
    const double dense_samples = static_cast<double>(n - sparse_samples.load());
    const double flops = 2.0 * static_cast<double>(out_c_) *
                         (dense_samples * static_cast<double>(dense_cols) *
                              static_cast<double>(rows) +
                          static_cast<double>(sparse_taps.load()));
    Profiler::instance().record(label_, timer.elapsed_s(), flops, out_c_,
                                dense_cols, rows);
  }
  return out;
}

std::int64_t ConvNd::forward_sparse(const float* in, const Conv3dGeom& g,
                                    const HalfTensor* whalf,
                                    const QuantizedRows* wq, float* out) {
  const std::int64_t numel = g.c * g.d * g.h * g.w;
  const std::int64_t rows = g.rows(), cols = g.cols();
  // The scatter reads the input as fp32 holding exactly the values the
  // dense lowering multiplies: binary16-rounded, or the int8 codes.
  auto& xs = f32_scratch();
  xs.resize(static_cast<std::size_t>(numel));
  float act_scale = 1.f;
  const util::AlignedVector<float>* slab = nullptr;
  if (wq) {
    auto& q = i8_scratch();
    q.resize(static_cast<std::size_t>(numel));
    act_scale = quantize_covered(in, g, q.data());
    std::copy(q.begin(), q.end(), xs.begin());  // int8 codes, widened
    slab = &slab_q_.get(
        [&] { return widen_slab(wq->values.data(), out_c_, rows); });
  } else {
    auto& inh = f16_scratch_b();
    inh.resize(static_cast<std::size_t>(numel));
    util::float_to_half_sat_n(in, inh.data(), numel);
    util::half_to_float_n(inh.data(), xs.data(), numel);
    slab = &slab_half_.get(
        [&] { return widen_slab(whalf->data(), out_c_, rows); });
  }
  auto& acc = acc_scratch();
  acc.assign(static_cast<std::size_t>(cols * out_c_), 0.f);
  const std::int64_t taps = simd::kernels().scatter_conv(
      xs.data(), g, out_c_, slab->data(), acc.data());
  store_transposed(acc.data(), cols, out_c_, wq ? wq->scales.data() : nullptr,
                   act_scale, out);
  return taps;
}

Tensor ConvNd::backward(const Tensor& gy) {
  if (cached_input_.empty()) {
    throw std::logic_error(label_ + ": backward before kTrain forward");
  }
  const Tensor& x = cached_input_;
  const Conv3dGeom g = geom_for(x);
  const std::int64_t n = x.dim(0);
  const std::int64_t rows = g.rows(), cols = g.cols();
  Tensor gx(x.shape());

  auto& colbuf = f32_scratch();
  colbuf.resize(static_cast<std::size_t>(rows * cols));
  std::vector<float> gcol(static_cast<std::size_t>(rows * cols));

  const std::int64_t in_stride = in_c_ * g.d * g.h * g.w;
  const std::int64_t out_stride = out_c_ * cols;
  for (std::int64_t sample = 0; sample < n; ++sample) {
    const float* x_s = x.data() + sample * in_stride;
    const float* gy_s = gy.data() + sample * out_stride;
    float* gx_s = gx.data() + sample * in_stride;

    vol2col_3d(x_s, g, colbuf.data());
    // gW (out_c, rows) += gy_mat (out_c, cols) x colsᵀ
    sgemm(false, true, out_c_, rows, cols, 1.f, gy_s, cols, colbuf.data(),
          cols, 1.f, weight_.grad.data(), rows);
    if (bias_) accum_bias_grad(gy_s, bias_->grad.data(), out_c_, cols);
    // gcols (rows, cols) = Wᵀ x gy_mat
    sgemm(true, false, rows, cols, out_c_, 1.f, weight_.value.data(), rows,
          gy_s, cols, 0.f, gcol.data(), cols);
    col2vol_3d(gcol.data(), g, gx_s);
  }
  cached_input_ = Tensor();
  return gx;
}

void ConvNd::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (bias_) out.push_back(&*bias_);
}

// ---------------------------------------------------------------------------
// ConvTransposeNd: ConvTranspose2d and ConvTranspose3d
// ---------------------------------------------------------------------------

ConvTransposeNd::ConvTransposeNd(int rank, std::int64_t in_c,
                                 std::int64_t out_c,
                                 std::array<std::int64_t, 3> kernel,
                                 std::array<std::int64_t, 3> stride,
                                 std::array<std::int64_t, 3> pad,
                                 bool with_bias, util::Rng& rng,
                                 std::string label)
    : rank_(rank),
      in_c_(in_c),
      out_c_(out_c),
      k_(kernel),
      s_(stride),
      p_(pad),
      weight_(label + ".weight", Tensor(conv_shape(rank, in_c, out_c, kernel))),
      label_(std::move(label)) {
  const std::int64_t fan_in = in_c * kernel[0] * kernel[1] * kernel[2];
  kaiming_normal(weight_.value, fan_in, rng);
  if (with_bias) {
    bias_.emplace(label_ + ".bias", Tensor({out_c}));
    uniform_init(bias_->value, 1.0 / std::sqrt(static_cast<double>(fan_in)), rng);
  }
}

Conv3dGeom ConvTransposeNd::geom_for(const Tensor& x) const {
  const std::array<std::int64_t, 3> in = spatial_dims(x, rank_, in_c_, label_);
  std::array<std::int64_t, 3> out{};
  for (std::size_t a = 0; a < 3; ++a) {
    out[a] = (in[a] - 1) * s_[a] - 2 * p_[a] + k_[a];
  }
  const Conv3dGeom g = conv_geom(out_c_, out, k_, s_, p_);
  if (g.out_d() != in[0] || g.out_h() != in[1] || g.out_w() != in[2]) {
    throw std::invalid_argument(label_ + ": inconsistent deconv geometry");
  }
  return g;
}

Tensor ConvTransposeNd::forward(const Tensor& x, Mode mode) {
  const Conv3dGeom g = geom_for(x);
  const std::int64_t n = x.dim(0);
  const std::int64_t rows = g.rows();  // out_c * kd * kh * kw
  const std::int64_t cols = g.cols();  // input positions
  Tensor out(conv_shape(rank_, n, out_c_, {g.d, g.h, g.w}));

  if (mode == Mode::kTrain) cached_input_ = x;

  // Transposed convolutions run on the offline decompression path; int8
  // mode falls back to full precision here.
  const bool half_mode = (mode == Mode::kEvalHalf);
  const HalfTensor* whalf =
      half_mode ? &weight_t_half_.get([&] {
        // Pack Wᵀ as (out_c*kd*kh*kw, in_c) so the half GEMM needs no
        // transpose.
        HalfTensor wt(Shape{rows, in_c_});
        const float* w = weight_.value.data();
        for (std::int64_t i = 0; i < in_c_; ++i) {
          for (std::int64_t r = 0; r < rows; ++r) {
            wt.data()[r * in_c_ + i] = util::half(w[i * rows + r]);
          }
        }
        return wt;
      })
                : nullptr;

  const float* bias = bias_ ? bias_->value.data() : nullptr;
  const bool prof = Profiler::instance().enabled();
  util::Timer timer;

  const std::int64_t in_stride = in_c_ * cols;
  const std::int64_t out_stride = out_c_ * g.d * g.h * g.w;
  util::parallel_for(
      0, n,
      [&](std::int64_t sample) {
        const float* x_s = x.data() + sample * in_stride;
        float* out_s = out.data() + sample * out_stride;
        auto& gcol = f32_scratch();
        gcol.resize(static_cast<std::size_t>(rows * cols));
        if (half_mode) {
          auto& xh = f16_scratch();
          xh.resize(static_cast<std::size_t>(in_stride));
          util::float_to_half_sat_n(x_s, xh.data(), in_stride);
          hgemm(rows, cols, in_c_, whalf->data(), in_c_, xh.data(), cols,
                gcol.data(), cols);
        } else {
          sgemm(true, false, rows, cols, in_c_, 1.f, weight_.value.data(),
                rows, x_s, cols, 0.f, gcol.data(), cols);
        }
        col2vol_3d(gcol.data(), g, out_s);
        apply_epilogue(out_s, EpilogueGrid::packed(g.d, g.h, g.w), out_s,
                       out_c_, bias, nullptr, std::nullopt);
      },
      mode == Mode::kTrain ? n + 1 : util::grain_for(rows * cols * in_c_));

  if (prof) {
    Profiler::instance().record(label_, timer.elapsed_s(),
                                2.0 * static_cast<double>(rows) *
                                    static_cast<double>(cols) *
                                    static_cast<double>(in_c_) *
                                    static_cast<double>(n),
                                rows, cols, in_c_);
  }
  return out;
}

Tensor ConvTransposeNd::backward(const Tensor& gy) {
  if (cached_input_.empty()) {
    throw std::logic_error(label_ + ": backward before kTrain forward");
  }
  const Tensor& x = cached_input_;
  const Conv3dGeom g = geom_for(x);
  const std::int64_t n = x.dim(0);
  const std::int64_t rows = g.rows();
  const std::int64_t cols = g.cols();
  Tensor gx(x.shape());

  auto& colbuf = f32_scratch();
  colbuf.resize(static_cast<std::size_t>(rows * cols));

  const std::int64_t in_stride = in_c_ * cols;
  const std::int64_t out_stride = out_c_ * g.d * g.h * g.w;
  for (std::int64_t sample = 0; sample < n; ++sample) {
    const float* x_s = x.data() + sample * in_stride;
    const float* gy_s = gy.data() + sample * out_stride;
    float* gx_s = gx.data() + sample * in_stride;

    vol2col_3d(gy_s, g, colbuf.data());
    // gx (in_c, cols) = W (in_c, rows) x colbuf (rows, cols)
    sgemm(false, false, in_c_, cols, rows, 1.f, weight_.value.data(), rows,
          colbuf.data(), cols, 0.f, gx_s, cols);
    // gW (in_c, rows) += x_mat (in_c, cols) x colbufᵀ
    sgemm(false, true, in_c_, rows, cols, 1.f, x_s, cols, colbuf.data(), cols,
          1.f, weight_.grad.data(), rows);
    if (bias_) {
      accum_bias_grad(gy_s, bias_->grad.data(), out_c_, g.d * g.h * g.w);
    }
  }
  cached_input_ = Tensor();
  return gx;
}

void ConvTransposeNd::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (bias_) out.push_back(&*bias_);
}

}  // namespace nc::core
