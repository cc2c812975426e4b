/// \file conv.hpp
/// \brief Convolution layers: Conv2d / Conv3d / ConvTranspose2d /
///        ConvTranspose3d.
///
/// All four lower to GEMM through the im2col/vol2col machinery:
///   conv forward        : out  = W · cols(x)
///   conv backward-data  : gx   = col2im(Wᵀ · g)
///   conv backward-weight: gW   = g · cols(x)ᵀ
///   deconv forward      : out  = col2im(Wᵀ · x)      (≡ conv backward-data)
///   deconv backward-data: gx   = W · cols(g)         (≡ conv forward)
///
/// Half-precision inference keeps a cached binary16 copy of the weight in
/// the orientation its GEMM consumes and lowers activations into a binary16
/// column buffer, so the GEMM streams half the bytes of the fp32 path.
/// Derived-weight caches (fp16 / int8) build lazily behind a LazyCache, so
/// concurrent eval-mode forwards (the multi-worker streaming pipeline) are
/// safe; only kTrain forwards and cache invalidation mutate layer state and
/// must be externally serialized.
///
/// Batch handling: training runs samples serially with parallel kernels
/// (gradient accumulation stays race-free); eval runs samples in an OpenMP
/// loop with serial inner kernels, which is what makes encoder throughput
/// grow with batch size (Fig. 6 A–C) — small batches cannot occupy all
/// cores, exactly as small kernels cannot occupy a GPU.
///
/// Conv2d eval has two lowerings.  Zero-suppressed TPC wedges are ~90 %
/// zeros, so the encoder's first layer mostly multiplies zeros when it is
/// lowered densely.
///   * dense:  im2col into a column matrix, then `hgemm` (kEvalHalf) or
///             input quantization + `qgemm` (kEvalInt8).  Every mode.
///   * sparse: scatter each nonzero input voxel, times its (kh*kw, out_c)
///             weight slab, into a pixel-major fp32 accumulator
///             (`simd::Kernels::scatter_conv2d`), then transpose (and, for
///             int8, scale) into the output.  kEvalHalf and kEvalInt8 only.
/// The gate is per sample: the sparse lowering runs when the sample's
/// nonzero fraction is at most `kSparseMaxDensityHalf` /
/// `kSparseMaxDensityInt8`.  int8 also needs exact fp32 sums
/// (c * kh * kw * 127^2 < 2^24) and every input voxel inside some window
/// (so that quantizing the input gives its im2col's scale); otherwise it
/// stays dense.  fp32 kEval, kTrain, Conv3d and the transposed convs are
/// always dense.
///
/// Output-bit contract (pinned by tests/test_conv_oracle.cpp against a
/// test-only copy of the dense lowering): for finite inputs and finite
/// binary16 weights, Conv2d's kEvalHalf and kEvalInt8 outputs are
/// bit-identical between the two lowerings and across every SIMD tier.
/// Why it holds: binary16 x binary16 and int8 x int8 products are exact in
/// binary32, so FMA and multiply-then-add round alike; the scatter visits
/// voxels in (c, y, x) order, which hands each output its terms in the
/// ascending (c, ky, kx) order of the dense GEMM; skipped terms are exact
/// zeros; and int8 partial sums are integers below 2^24.  Any change that
/// reorders an fp16 sum, or fuses a rounding step (e.g. contracting the
/// int8 epilogue `acc * scale + bias` into one FMA), breaks the contract.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "core/im2col.hpp"
#include "core/layer.hpp"
#include "core/quantize.hpp"
#include "util/rng.hpp"

namespace nc::core {

/// Largest nonzero fraction of a sample's input at which Conv2d's kEvalHalf
/// and kEvalInt8 forwards take the sparse lowering (see the file comment).
/// Each sits just below the lowest density at which the dense lowering won
/// on a vector tier in two runs of bench_kernels' dense-vs-sparse sweep
/// (single thread, 4-vCPU AVX-512 Xeon, GCC 12).  fp16: the scatter won at
/// every swept density up to 100 % on the 16 -> 32 7x7 input layer; on a
/// 32 -> 32 3x3 layer the dense GEMM overtook it at 45-70 % (avx2) and
/// 50-90 % (avx512).  int8: the dense GEMM overtook it at ~30 % on the 3x3
/// layer with avx2 and 45-50 % with avx512, and at 30-50 % (avx2) and
/// 50-100 % (avx512) on the 7x7 layer.  BCAE-2D's zero-suppressed wedges
/// are 11-13 % nonzero.  A faster dense kernel moves these crossovers:
/// re-measure when it changes.
inline constexpr double kSparseMaxDensityHalf = 0.4;
inline constexpr double kSparseMaxDensityInt8 = 0.25;

/// 2-D convolution over (N, C, H, W).
class Conv2d final : public Layer {
 public:
  /// kernel/stride/pad are (height, width) pairs.
  Conv2d(std::int64_t in_c, std::int64_t out_c, std::array<std::int64_t, 2> kernel,
         std::array<std::int64_t, 2> stride, std::array<std::int64_t, 2> pad,
         bool with_bias, util::Rng& rng, std::string label = "conv2d");

  Tensor forward(const Tensor& x, Mode mode) override;
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

  /// Output spatial shape for a given input spatial shape.
  std::array<std::int64_t, 2> out_hw(std::array<std::int64_t, 2> in_hw) const;

 private:
  Conv2dGeom geom_for(const Tensor& x) const;

  /// The sparse lowering of one sample (kEvalHalf when `wq` is null,
  /// kEvalInt8 otherwise), without bias.  Returns the (voxel, tap) pairs
  /// scattered.
  std::int64_t forward_sparse(const float* in, const Conv2dGeom& g,
                              const HalfTensor* whalf, const QuantizedRows* wq,
                              float* out);

  std::int64_t in_c_, out_c_;
  std::array<std::int64_t, 2> k_, s_, p_;
  Param weight_;  ///< (out_c, in_c, kh, kw)
  std::optional<Param> bias_;
  std::string label_;

  Tensor cached_input_;
  LazyCache<HalfTensor> weight_half_;
  LazyCache<QuantizedRows> weight_q_;
  /// Sparse-lowering weight slabs, (in_c * kh * kw, out_c) fp32 widened
  /// from weight_half_ / weight_q_.
  LazyCache<std::vector<float>> slab_half_;
  LazyCache<std::vector<float>> slab_q_;
};

/// 3-D convolution over (N, C, D, H, W); D is the TPC radial dimension.
class Conv3d final : public Layer {
 public:
  Conv3d(std::int64_t in_c, std::int64_t out_c, std::array<std::int64_t, 3> kernel,
         std::array<std::int64_t, 3> stride, std::array<std::int64_t, 3> pad,
         bool with_bias, util::Rng& rng, std::string label = "conv3d");

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  void invalidate_half_cache() override {
    weight_half_.invalidate();
    weight_q_.invalidate();
  }
  std::string name() const override { return label_; }

  const Param& weight() const { return weight_; }

 private:
  Conv3dGeom geom_for(const Tensor& x) const;

  std::int64_t in_c_, out_c_;
  std::array<std::int64_t, 3> k_, s_, p_;
  Param weight_;  ///< (out_c, in_c, kd, kh, kw)
  std::optional<Param> bias_;
  std::string label_;

  Tensor cached_input_;
  LazyCache<HalfTensor> weight_half_;
  LazyCache<QuantizedRows> weight_q_;
};

/// 2-D transposed convolution (a.k.a. deconvolution) over (N, C, H, W).
/// Output spatial size: (in - 1) * stride - 2 * pad + kernel.
class ConvTranspose2d final : public Layer {
 public:
  ConvTranspose2d(std::int64_t in_c, std::int64_t out_c,
                  std::array<std::int64_t, 2> kernel,
                  std::array<std::int64_t, 2> stride,
                  std::array<std::int64_t, 2> pad, bool with_bias,
                  util::Rng& rng, std::string label = "deconv2d");

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  void invalidate_half_cache() override { weight_t_half_.invalidate(); }
  std::string name() const override { return label_; }

 private:
  /// Geometry of the *equivalent forward conv* mapping output -> input.
  Conv2dGeom geom_for_output(std::array<std::int64_t, 2> out_hw) const;

  std::int64_t in_c_, out_c_;
  std::array<std::int64_t, 2> k_, s_, p_;
  Param weight_;  ///< (in_c, out_c, kh, kw)  (PyTorch deconv convention)
  std::optional<Param> bias_;
  std::string label_;

  Tensor cached_input_;
  LazyCache<HalfTensor> weight_t_half_;  ///< transposed weight (out_c*kh*kw, in_c)
};

/// 3-D transposed convolution over (N, C, D, H, W).
class ConvTranspose3d final : public Layer {
 public:
  ConvTranspose3d(std::int64_t in_c, std::int64_t out_c,
                  std::array<std::int64_t, 3> kernel,
                  std::array<std::int64_t, 3> stride,
                  std::array<std::int64_t, 3> pad, bool with_bias,
                  util::Rng& rng, std::string label = "deconv3d");

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  void invalidate_half_cache() override { weight_t_half_.invalidate(); }
  std::string name() const override { return label_; }

 private:
  Conv3dGeom geom_for_output(std::array<std::int64_t, 3> out_dhw) const;

  std::int64_t in_c_, out_c_;
  std::array<std::int64_t, 3> k_, s_, p_;
  Param weight_;  ///< (in_c, out_c, kd, kh, kw)
  std::optional<Param> bias_;
  std::string label_;

  Tensor cached_input_;
  LazyCache<HalfTensor> weight_t_half_;
};

}  // namespace nc::core
