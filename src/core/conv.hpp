/// \file conv.hpp
/// \brief Convolution layers: Conv2d / Conv3d / ConvTranspose2d /
///        ConvTranspose3d.
///
/// One engine runs all four.  Every conv is a 3-D conv keyed on a
/// `Conv3dGeom`; a 2-D layer is the case d = kd = 1, sd = 1, pd = 0, whose
/// (N, C, H, W) tensors already have the memory layout of (N, C, 1, H, W), so
/// it copies no data.  `ConvNd` holds the one forward and backward of Conv2d
/// and Conv3d, `ConvTransposeNd` those of the two transposed convs; the
/// layer classes only fix the rank.  All lower to GEMM, through vol2col/
/// col2vol or, for stride-1 eval convs, the zero-haloed input read in place:
///   conv forward        : out  = W · cols(x)
///   conv backward-data  : gx   = col2vol(Wᵀ · g)
///   conv backward-weight: gW   = g · cols(x)ᵀ
///   deconv forward      : out  = col2vol(Wᵀ · x)     (≡ conv backward-data)
///   deconv backward-data: gx   = W · cols(g)         (≡ conv forward)
///
/// Half-precision inference keeps a cached binary16 copy of the weight in
/// the orientation its GEMM consumes and casts activations to binary16
/// before they are lowered, so the GEMM streams half the bytes of the fp32
/// path.
/// Derived-weight caches (fp16 / int8) build lazily behind a LazyCache, so
/// concurrent eval-mode forwards (the multi-worker streaming pipeline) are
/// safe; only kTrain forwards and cache invalidation mutate layer state and
/// must be externally serialized.
///
/// Batch handling: training runs samples serially with parallel kernels
/// (gradient accumulation stays race-free); eval runs samples in an OpenMP
/// loop with serial inner kernels, which is what makes encoder throughput
/// grow with batch size (Fig. 6 A–C) — small batches cannot occupy all
/// cores, exactly as small kernels cannot occupy a GPU.  Every fork site
/// (the sample loop, the lowerings, the GEMMs) opens a team only for at
/// least `util::kForkMinWork` multiply-adds or copies, so a tiny conv never
/// pays for one.
///
/// The dense eval lowerings of Conv2d and Conv3d:
///   * kEvalHalf and kEvalInt8 with stride 1 on every axis (every BCAE-2D
///     conv and the 3-D models' 3x3x3 convs; 1x1 included) build no column
///     matrix.  Each sample is copied once into a per-thread volume with a
///     zero halo (`HaloGeom`, `pad_volume` in core/im2col.hpp) that holds
///     the binary16 values of the saturating cast or the int8 codes, and the
///     GEMM multiplies it in place on the padded-pitch grid: B row
///     (c, kz, ky, kx) is the run of `HaloGeom::cols` elements at
///     c * volume + kz * plane + ky * pitch + kx, which `hgemm`'s `tile_hh`
///     or `qgemm` reads through a row table (the int8 kernels pack each
///     16-column panel straight from the haloed codes).  `apply_epilogue`
///     drops the halo columns as it stores each row.  A 1x1 unpadded conv is
///     the pad-0, one-tap case: its copy is the input and its grid the
///     output.  The column matrix this replaces was 5-40x the size of the
///     haloed input (442 KB per sample at `enc.b1`, 4.8 MB at `enc.in`'s
///     dense fallback).
///   * Strided convs (the 3-D models' first conv when it runs dense), fp32
///     kEval and kTrain lower through `vol2col_3d` (a run copy per column
///     row, no per-element bounds test) and multiply the column matrix;
///     fp32 skips the lowering of a 1x1 stride-1 unpadded conv, whose column
///     matrix is its input.
///   kEvalInt8 quantizes the input once, before either lowering.  The scale
///   is `quant_scale` of the largest |x| over the voxels some window covers,
///   which is the largest magnitude in the column matrix, so the codes are
///   those of quantizing the column matrix; in every BCAE layer every voxel
///   is covered and the scale is one `max_abs`.
/// The transposed convs multiply first (`hgemm` in kEvalHalf; kEvalInt8
/// falls back to fp32) and scatter with col2vol.
///
/// Conv2d and Conv3d eval have a second, sparse lowering.  Zero-suppressed
/// TPC wedges are ~90 % zeros, so each model's first conv (BCAE-2D's
/// `enc.in`, the 3-D models' `enc.s0.down`) mostly multiplies zeros when it
/// is lowered densely.  The sparse lowering scatters each nonzero input
/// voxel, times its (kd*kh*kw, out_c) weight slab, into a voxel-major fp32
/// accumulator (`simd::Kernels::scatter_conv`), then transposes (and, for
/// int8, scales) into the output; int8 quantizes the input as the dense path
/// does.  The gate is per sample: the sparse lowering runs when the sample's
/// nonzero fraction is at most `kSparseMaxDensityHalf` /
/// `kSparseMaxDensityInt8`, and for int8 only while fp32 sums stay exact
/// (c * kd * kh * kw * 127^2 < 2^24).  fp32 kEval, kTrain and the transposed
/// convs are always dense.
///
/// Output-bit contract (pinned by tests/test_conv_oracle.cpp against a
/// self-contained element-by-element vol2col and GEMM loop): for finite
/// inputs and finite binary16 weights, the kEvalHalf outputs of all four
/// convs and the kEvalInt8 outputs of Conv2d and Conv3d are bit-identical
/// between the lowerings and across every SIMD tier.  Why it holds:
/// binary16 x binary16 and int8 x int8 products are exact in binary32, so
/// FMA and multiply-then-add round alike; every tier's tile sums each
/// output from +0 in ascending k, however it blocks registers; B is finite
/// (the saturating cast), so the tiers that do not skip zero weights add
/// exact zeros; the in-place lowering hands each output the same products
/// in the same order, its halo terms being exact zeros like the column
/// matrix's padding; the scatter visits voxels in (c, z, y, x) order, which
/// hands each output its terms in the ascending (c, kz, ky, kx) order of the
/// dense GEMM; skipped terms are exact zeros; and int8 partial sums are
/// integers below 2^24.  Any change that reorders an fp16 sum, or fuses a
/// rounding step (e.g. contracting the int8 epilogue `acc * scale + bias`
/// into one FMA), breaks the contract.
///
/// The epilogue.  Every lowering of Conv2d and Conv3d (sparse, in place,
/// vol2col and fp32) ends each sample in one pass, `apply_epilogue`, that
/// turns the stored GEMM (or scatter) result `acc` of output channel o and
/// element i, read from the padded-pitch grid in place, into
///   v = acc + bias[o]               when the layer has a bias,
///   v = v + residual[i]             when the call passes a residual,
///   v = v > 0.f ? v : slope * v     when the call passes a LeakyReLU slope,
/// each step rounded on its own, in this order.  These are the roundings of
/// the unfused chain (bias pass, `add_inplace` of the skip, LeakyReLU
/// layer), so fusing changes no output bit.  The activation is a bit-mask
/// blend (`leaky_relu` in core/act.hpp), equal to the branch for every x and
/// slope, so the pass has no control flow and vectorizes.  It is compiled in
/// this portable translation unit, without -mfma, so no step can contract
/// into an FMA.  The epilogue is an argument of each call (`forward_fused`),
/// never layer state, because concurrent pipeline workers share one layer.
/// In the eval modes `Sequential` runs a conv and the LeakyReLU after it as
/// one fused call, and a norm-free `ResBlock` runs conv1 with its activation
/// and conv2 with the skip tensor and the activation; kTrain keeps the
/// separate layers, whose backward needs the pre-activation caches.  The
/// transposed convs end in the same pass with the bias alone.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/im2col.hpp"
#include "core/layer.hpp"
#include "core/quantize.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace nc::core {

/// Largest nonzero fraction of a sample's input at which the kEvalHalf and
/// kEvalInt8 forwards of Conv2d and Conv3d take the sparse lowering (see the
/// file comment); one gate serves both ranks.  A faster kernel on either
/// side moves the crossovers: re-measure when one changes.  The values rest
/// on bench_kernels' dense-vs-sparse sweep (single thread, 4-vCPU AVX-512
/// Xeon, GCC 12; densities 1, 5, 10, 15, 20, 30, 50 and 100 %), whose dense
/// side runs the lowering the layers run.  Three sweeps with stride-1 convs
/// in place on the zero-haloed input put the vector tiers' crossovers at:
///   * the 16 -> 32 7x7 input layer, the only BCAE-2D layer whose input is
///     sparse: 30-50 % in fp16 on both tiers (its dense conv takes 1.34 ms
///     per sample on AVX-512), and in int8 20-50 % on AVX2 and above 50 %
///     on AVX-512;
///   * the 3-D models' first conv (1 -> 2 and 1 -> 8 channels, kernel
///     3x4x4, stride 1x2x2, pad 1, on a 16x48x64 input), strided and so
///     still lowered through vol2col_3d: 20-50 %, mostly 30-50 %;
///   * a 32 -> 32 3x3 layer: 10-30 %, though no BCAE 3x3 conv sees inputs
///     that sparse.
/// No sweep put every vector tier's crossover below a gate, so the gates
/// stay where earlier sweeps set them.  A sample between a gate and its
/// crossover runs the slower lowering, which costs time only on inputs far
/// denser than TPC wedges (10.5-13 % nonzero).  The input layer's dense
/// fallback keeps a 121 KB haloed copy and a 429 KB padded-grid result per
/// thread, where its column matrix took 4.7 MB.
inline constexpr double kSparseMaxDensityHalf = 0.4;
inline constexpr double kSparseMaxDensityInt8 = 0.25;

/// What a fused eval forward applies after the bias (see "The epilogue" in
/// the file comment).
struct ConvEpilogue {
  /// Added after the bias; must have the output's shape.  Null: none.
  const Tensor* residual = nullptr;
  /// LeakyReLU slope applied last.  Empty: no activation.
  std::optional<float> leaky_slope;

  bool empty() const { return residual == nullptr && !leaky_slope; }
};

/// Where one sample's GEMM (or scatter) result lies for `apply_epilogue`:
/// output channel o's voxel (z, y, x) at o * cols + z * plane + y * row + x.
/// The in-place lowering's padded-pitch grid has the pitches and columns of
/// the haloed input (`HaloGeom` in core/im2col.hpp); `packed` is the
/// output's own layout.
struct EpilogueGrid {
  std::int64_t d = 1, h = 1, w = 1;           ///< the output's extents
  std::int64_t row = 1, plane = 1, cols = 1;  ///< the source's pitches

  static EpilogueGrid packed(std::int64_t d, std::int64_t h, std::int64_t w) {
    return {d, h, w, w, h * w, d * h * w};
  }
  bool is_packed() const { return row == w && plane == h * w; }
};

/// The epilogue pass over one sample's (out_c, d, h, w) output:
/// out = act(acc + bias[o] + residual), each step rounded on its own, in
/// that order, each output read from its place in `grid`; the grid's halo
/// columns are dropped.  `acc` may be `out` itself when the grid is packed.
/// A null `bias` or `residual` or an empty `leaky_slope` skips its step (no
/// `+ 0.f`, which would turn -0 into +0).
void apply_epilogue(const float* acc, const EpilogueGrid& grid, float* out,
                    std::int64_t out_c, const float* bias,
                    const float* residual, std::optional<float> leaky_slope);

/// A conv whose eval forward can run a ConvEpilogue in its store: Conv2d and
/// Conv3d.
class FusableConv : public Layer {
 public:
  /// forward(x, mode) with `ep` applied to every sample as it is stored.
  /// Throws std::logic_error for a non-empty `ep` in kTrain (backward needs
  /// the pre-activation output) and std::invalid_argument for a residual
  /// whose shape is not the output's.
  virtual Tensor forward_fused(const Tensor& x, Mode mode,
                               const ConvEpilogue& ep) = 0;
};

/// The engine of Conv2d and Conv3d: one convolution over (N, C, D, H, W)
/// with every eval lowering in the file comment.  A rank-2 layer is the case
/// d = kd = 1, sd = 1, pd = 0: its (N, C, H, W) input and (out_c, in_c, kh,
/// kw) weight already have the memory layout of (N, C, 1, H, W) and (out_c,
/// in_c, 1, kh, kw), so it runs the same code on the same data.
class ConvNd : public FusableConv {
 public:
  Tensor forward(const Tensor& x, Mode mode) override {
    return forward_fused(x, mode, {});
  }
  Tensor forward_fused(const Tensor& x, Mode mode,
                       const ConvEpilogue& ep) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  void invalidate_half_cache() override {
    weight_half_.invalidate();
    weight_q_.invalidate();
    slab_half_.invalidate();
    slab_q_.invalidate();
  }
  std::string name() const override { return label_; }

  const Param& weight() const { return weight_; }

 protected:
  /// `rank` is 2 or 3; kernel/stride/pad are (depth, height, width), with
  /// depth 1/1/0 for rank 2.
  ConvNd(int rank, std::int64_t in_c, std::int64_t out_c,
         std::array<std::int64_t, 3> kernel, std::array<std::int64_t, 3> stride,
         std::array<std::int64_t, 3> pad, bool with_bias, util::Rng& rng,
         std::string label);

 private:
  Conv3dGeom geom_for(const Tensor& x) const;

  /// The sparse lowering of one sample (kEvalHalf when `wq` is null,
  /// kEvalInt8 otherwise), without the epilogue.  Returns the (voxel, tap)
  /// pairs scattered.
  std::int64_t forward_sparse(const float* in, const Conv3dGeom& g,
                              const HalfTensor* whalf, const QuantizedRows* wq,
                              float* out);

  int rank_;
  std::int64_t in_c_, out_c_;
  std::array<std::int64_t, 3> k_, s_, p_;
  Param weight_;  ///< (out_c, in_c, [kd,] kh, kw)
  std::optional<Param> bias_;
  std::string label_;

  Tensor cached_input_;
  LazyCache<HalfTensor> weight_half_;
  LazyCache<QuantizedRows> weight_q_;
  /// Sparse-lowering weight slabs, (in_c * kd * kh * kw, out_c) fp32 widened
  /// from weight_half_ / weight_q_, cache-line aligned.
  LazyCache<util::AlignedVector<float>> slab_half_;
  LazyCache<util::AlignedVector<float>> slab_q_;
};

/// 2-D convolution over (N, C, H, W).
class Conv2d final : public ConvNd {
 public:
  /// kernel/stride/pad are (height, width) pairs.
  Conv2d(std::int64_t in_c, std::int64_t out_c, std::array<std::int64_t, 2> kernel,
         std::array<std::int64_t, 2> stride, std::array<std::int64_t, 2> pad,
         bool with_bias, util::Rng& rng, std::string label = "conv2d")
      : ConvNd(2, in_c, out_c, {1, kernel[0], kernel[1]},
               {1, stride[0], stride[1]}, {0, pad[0], pad[1]}, with_bias, rng,
               std::move(label)) {}
};

/// 3-D convolution over (N, C, D, H, W); D is the TPC radial dimension.
class Conv3d final : public ConvNd {
 public:
  Conv3d(std::int64_t in_c, std::int64_t out_c, std::array<std::int64_t, 3> kernel,
         std::array<std::int64_t, 3> stride, std::array<std::int64_t, 3> pad,
         bool with_bias, util::Rng& rng, std::string label = "conv3d")
      : ConvNd(3, in_c, out_c, kernel, stride, pad, with_bias, rng,
               std::move(label)) {}
};

/// The engine of ConvTranspose2d and ConvTranspose3d, over (N, C, D, H, W);
/// rank 2 is the depth-1 case, as for ConvNd.  Output spatial size per axis:
/// (in - 1) * stride - 2 * pad + kernel.
class ConvTransposeNd : public Layer {
 public:
  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  void invalidate_half_cache() override { weight_t_half_.invalidate(); }
  std::string name() const override { return label_; }

 protected:
  /// As ConvNd's.
  ConvTransposeNd(int rank, std::int64_t in_c, std::int64_t out_c,
                  std::array<std::int64_t, 3> kernel,
                  std::array<std::int64_t, 3> stride,
                  std::array<std::int64_t, 3> pad, bool with_bias,
                  util::Rng& rng, std::string label);

 private:
  /// Geometry of the *equivalent forward conv* mapping the output of input
  /// `x` back onto `x`.
  Conv3dGeom geom_for(const Tensor& x) const;

  int rank_;
  std::int64_t in_c_, out_c_;
  std::array<std::int64_t, 3> k_, s_, p_;
  Param weight_;  ///< (in_c, out_c, [kd,] kh, kw)  (PyTorch deconv convention)
  std::optional<Param> bias_;
  std::string label_;

  Tensor cached_input_;
  /// Transposed weight (out_c * kd * kh * kw, in_c).
  LazyCache<HalfTensor> weight_t_half_;
};

/// 2-D transposed convolution (a.k.a. deconvolution) over (N, C, H, W).
class ConvTranspose2d final : public ConvTransposeNd {
 public:
  ConvTranspose2d(std::int64_t in_c, std::int64_t out_c,
                  std::array<std::int64_t, 2> kernel,
                  std::array<std::int64_t, 2> stride,
                  std::array<std::int64_t, 2> pad, bool with_bias,
                  util::Rng& rng, std::string label = "deconv2d")
      : ConvTransposeNd(2, in_c, out_c, {1, kernel[0], kernel[1]},
                        {1, stride[0], stride[1]}, {0, pad[0], pad[1]},
                        with_bias, rng, std::move(label)) {}
};

/// 3-D transposed convolution over (N, C, D, H, W).
class ConvTranspose3d final : public ConvTransposeNd {
 public:
  ConvTranspose3d(std::int64_t in_c, std::int64_t out_c,
                  std::array<std::int64_t, 3> kernel,
                  std::array<std::int64_t, 3> stride,
                  std::array<std::int64_t, 3> pad, bool with_bias,
                  util::Rng& rng, std::string label = "deconv3d")
      : ConvTransposeNd(3, in_c, out_c, kernel, stride, pad, with_bias, rng,
                        std::move(label)) {}
};

}  // namespace nc::core
