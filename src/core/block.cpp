#include "core/block.hpp"

#include "core/norm.hpp"
#include "core/ops.hpp"

namespace nc::core {

Sequential& Sequential::add(LayerPtr layer) {
  if (const auto* act = dynamic_cast<const LeakyReLU*>(layer.get());
      act && !layers_.empty()) {
    if (auto* conv = dynamic_cast<FusableConv*>(layers_.back().get())) {
      fusions_.back() = {conv, act->slope()};
    }
  }
  layers_.push_back(std::move(layer));
  fusions_.emplace_back();
  return *this;
}

Tensor Sequential::forward(const Tensor& x, Mode mode) {
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Fusion& f = fusions_[i];
    if (f.conv && mode != Mode::kTrain) {
      h = f.conv->forward_fused(h, mode, {nullptr, f.slope});
      ++i;  // the LeakyReLU ran in the conv's store
    } else {
      h = layers_[i]->forward(h, mode);
    }
  }
  return h;
}

Tensor Sequential::backward(const Tensor& gy) {
  Tensor g = gy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::collect_params(std::vector<Param*>& out) {
  for (auto& layer : layers_) layer->collect_params(out);
}

void Sequential::invalidate_half_cache() {
  for (auto& layer : layers_) layer->invalidate_half_cache();
}

// ---------------------------------------------------------------------------
// ResBlock
// ---------------------------------------------------------------------------

ResBlock::ResBlock(std::unique_ptr<FusableConv> conv1,
                   std::unique_ptr<FusableConv> conv2, LayerPtr skip,
                   LayerPtr norm1, LayerPtr norm2, LayerPtr norm_skip,
                   std::string label)
    : conv1_(std::move(conv1)),
      conv2_(std::move(conv2)),
      skip_(std::move(skip)),
      norm1_(std::move(norm1)),
      norm2_(std::move(norm2)),
      norm_skip_(std::move(norm_skip)),
      act1_(std::make_unique<LeakyReLU>(0.01f, label + ".act1")),
      act2_(std::make_unique<LeakyReLU>(0.01f, label + ".act2")),
      label_(std::move(label)) {}

LayerPtr ResBlock::make_2d(std::int64_t in_c, std::int64_t out_c,
                           std::int64_t kernel, std::int64_t pad, bool use_norm,
                           util::Rng& rng, std::string label) {
  auto conv1 = std::make_unique<Conv2d>(
      in_c, out_c, std::array<std::int64_t, 2>{kernel, kernel},
      std::array<std::int64_t, 2>{1, 1}, std::array<std::int64_t, 2>{pad, pad},
      /*with_bias=*/true, rng, label + ".conv1");
  auto conv2 = std::make_unique<Conv2d>(
      out_c, out_c, std::array<std::int64_t, 2>{kernel, kernel},
      std::array<std::int64_t, 2>{1, 1}, std::array<std::int64_t, 2>{pad, pad},
      /*with_bias=*/true, rng, label + ".conv2");
  LayerPtr skip;
  if (in_c != out_c) {
    skip = std::make_unique<Conv2d>(
        in_c, out_c, std::array<std::int64_t, 2>{1, 1},
        std::array<std::int64_t, 2>{1, 1}, std::array<std::int64_t, 2>{0, 0},
        /*with_bias=*/true, rng, label + ".skip");
  }
  LayerPtr n1, n2, ns;
  if (use_norm) {
    n1 = std::make_unique<InstanceNorm>(out_c, 1e-5f, label + ".norm1");
    n2 = std::make_unique<InstanceNorm>(out_c, 1e-5f, label + ".norm2");
    if (skip) ns = std::make_unique<InstanceNorm>(out_c, 1e-5f, label + ".norm_skip");
  }
  return LayerPtr(new ResBlock(std::move(conv1), std::move(conv2),
                               std::move(skip), std::move(n1), std::move(n2),
                               std::move(ns), std::move(label)));
}

LayerPtr ResBlock::make_3d(std::int64_t in_c, std::int64_t out_c,
                           std::array<std::int64_t, 3> kernel,
                           std::array<std::int64_t, 3> pad, bool use_norm,
                           util::Rng& rng, std::string label) {
  auto conv1 = std::make_unique<Conv3d>(in_c, out_c, kernel,
                                        std::array<std::int64_t, 3>{1, 1, 1},
                                        pad, /*with_bias=*/true, rng,
                                        label + ".conv1");
  auto conv2 = std::make_unique<Conv3d>(out_c, out_c, kernel,
                                        std::array<std::int64_t, 3>{1, 1, 1},
                                        pad, /*with_bias=*/true, rng,
                                        label + ".conv2");
  LayerPtr skip;
  if (in_c != out_c) {
    skip = std::make_unique<Conv3d>(in_c, out_c,
                                    std::array<std::int64_t, 3>{1, 1, 1},
                                    std::array<std::int64_t, 3>{1, 1, 1},
                                    std::array<std::int64_t, 3>{0, 0, 0},
                                    /*with_bias=*/true, rng, label + ".skip");
  }
  LayerPtr n1, n2, ns;
  if (use_norm) {
    n1 = std::make_unique<InstanceNorm>(out_c, 1e-5f, label + ".norm1");
    n2 = std::make_unique<InstanceNorm>(out_c, 1e-5f, label + ".norm2");
    if (skip) ns = std::make_unique<InstanceNorm>(out_c, 1e-5f, label + ".norm_skip");
  }
  return LayerPtr(new ResBlock(std::move(conv1), std::move(conv2),
                               std::move(skip), std::move(n1), std::move(n2),
                               std::move(ns), std::move(label)));
}

Tensor ResBlock::forward(const Tensor& x, Mode mode) {
  const bool fuse = mode != Mode::kTrain;
  Tensor h = fuse ? conv1_->forward_fused(x, mode, {nullptr, act1_->slope()})
                  : act1_->forward(conv1_->forward(x, mode), mode);
  if (norm1_) h = norm1_->forward(h, mode);

  Tensor s = skip_ ? skip_->forward(x, mode) : x;
  if (norm_skip_) s = norm_skip_->forward(s, mode);

  if (fuse && !norm2_) {
    return conv2_->forward_fused(h, mode, {&s, act2_->slope()});
  }
  h = conv2_->forward(h, mode);
  if (norm2_) h = norm2_->forward(h, mode);
  add_inplace(h, s);
  return act2_->forward(h, mode);
}

Tensor ResBlock::backward(const Tensor& gy) {
  Tensor g = act2_->backward(gy);

  // Skip branch gradient.
  Tensor gs = g;
  if (norm_skip_) gs = norm_skip_->backward(gs);
  Tensor gx_skip = skip_ ? skip_->backward(gs) : gs;

  // Main branch gradient.
  Tensor gm = g;
  if (norm2_) gm = norm2_->backward(gm);
  gm = conv2_->backward(gm);
  if (norm1_) gm = norm1_->backward(gm);
  gm = act1_->backward(gm);
  Tensor gx_main = conv1_->backward(gm);

  add_inplace(gx_main, gx_skip);
  return gx_main;
}

void ResBlock::collect_params(std::vector<Param*>& out) {
  conv1_->collect_params(out);
  conv2_->collect_params(out);
  if (skip_) skip_->collect_params(out);
  if (norm1_) norm1_->collect_params(out);
  if (norm2_) norm2_->collect_params(out);
  if (norm_skip_) norm_skip_->collect_params(out);
}

void ResBlock::invalidate_half_cache() {
  conv1_->invalidate_half_cache();
  conv2_->invalidate_half_cache();
  if (skip_) skip_->invalidate_half_cache();
}

}  // namespace nc::core
