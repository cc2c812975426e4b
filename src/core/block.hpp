/// \file block.hpp
/// \brief Composite layers: Sequential chains and the BCAE residual block.
#pragma once

#include <array>

#include "core/act.hpp"
#include "core/conv.hpp"
#include "core/layer.hpp"
#include "util/rng.hpp"

namespace nc::core {

/// Ordered chain of layers.  forward runs front-to-back, backward back-to-
/// front; parameter collection and cache invalidation recurse.  In the eval
/// modes a Conv2d or Conv3d followed by a LeakyReLU runs as one fused call,
/// the activation applied in the conv's store (ConvEpilogue, core/conv.hpp).
class Sequential final : public Layer {
 public:
  explicit Sequential(std::string label = "sequential")
      : label_(std::move(label)) {}

  /// Append a layer; returns *this for chaining during model construction.
  Sequential& add(LayerPtr layer);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  void invalidate_half_cache() override;
  std::string name() const override { return label_; }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  /// A conv whose next layer is a LeakyReLU of slope `slope`.
  struct Fusion {
    FusableConv* conv = nullptr;
    float slope = 0.f;
  };

  std::vector<LayerPtr> layers_;
  std::vector<Fusion> fusions_;  ///< per layer; conv null when it has none
  std::string label_;
};

/// Residual block (Fig. 4): a two-convolution main branch and a skip branch
/// joined by addition, followed by an activation.
///
///   main: conv(k) -> act -> [norm] -> conv(k) -> [norm]
///   skip: identity when channels match, else 1x1(x1) conv [-> norm]
///   out:  act(main + skip)
///
/// `use_norm` inserts InstanceNorm after each conv — used only by the
/// original-BCAE baseline; the ++/HT/2D variants run norm-free (§2.3).
///
/// The eval modes fuse: conv1 applies the first activation in its store,
/// and without norms conv2 adds the skip tensor and applies the second
/// (ConvEpilogue, core/conv.hpp), with the bits of the separate layers.
class ResBlock final : public Layer {
 public:
  /// 2-D residual block over (N, C, H, W).  kernel/pad apply to both axes.
  static LayerPtr make_2d(std::int64_t in_c, std::int64_t out_c,
                          std::int64_t kernel, std::int64_t pad, bool use_norm,
                          util::Rng& rng, std::string label = "resblock2d");

  /// 3-D residual block over (N, C, D, H, W).
  static LayerPtr make_3d(std::int64_t in_c, std::int64_t out_c,
                          std::array<std::int64_t, 3> kernel,
                          std::array<std::int64_t, 3> pad, bool use_norm,
                          util::Rng& rng, std::string label = "resblock3d");

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  void invalidate_half_cache() override;
  std::string name() const override { return label_; }

 private:
  ResBlock(std::unique_ptr<FusableConv> conv1,
           std::unique_ptr<FusableConv> conv2, LayerPtr skip, LayerPtr norm1,
           LayerPtr norm2, LayerPtr norm_skip, std::string label);

  std::unique_ptr<FusableConv> conv1_, conv2_;
  LayerPtr skip_;                          // may be null (identity)
  LayerPtr norm1_, norm2_, norm_skip_;     // may be null (norm-free variants)
  std::unique_ptr<LeakyReLU> act1_, act2_;
  std::string label_;
};

}  // namespace nc::core
