/// The conv epilogue (core/conv.hpp, "The epilogue"): bias, residual add and
/// LeakyReLU in one pass, each step rounded on its own, in that order.
///
///   * kernel level: `apply_epilogue` on rows of ±0, mixed signs, ±65504,
///     values below binary16 resolution and products that underflow to -0,
///     for every combination of steps and slopes 0, 0.01, 0.5 and 1 (and
///     -0.5 and 2, which the LeakyReLU constructor also accepts), against a
///     self-contained scalar reference, both in place on a packed result and
///     reading a padded-pitch grid (the in-place lowering's) whose halo
///     columns hold NaN and must be dropped;
///   * a stand-in that adds the residual before the bias must fail there;
///   * layer level: `forward_fused` of Conv2d and Conv3d through every
///     lowering (sparse, in place on the haloed input in fp16 and int8, with
///     and without halo columns, and fp32), with and without a residual,
///     against the reference applied to the output of a bias-free twin layer
///     with the same weights;
///   * misuse throws: an epilogue in kTrain, a residual of the wrong shape;
///   * concurrent fused forwards on one shared model agree with a serial
///     one (this suite carries the `tsan` label).
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bcae/model.hpp"
#include "core/conv.hpp"

namespace {

using nc::core::ConvEpilogue;
using nc::core::EpilogueGrid;
using nc::core::Mode;
using nc::core::Tensor;

using EpilogueFn = void (*)(const float*, const EpilogueGrid&, float*,
                            std::int64_t, const float*, const float*,
                            std::optional<float>);

/// SplitMix64.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::int64_t below(std::int64_t bound) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(bound));
  }
  float unit() { return static_cast<float>(next() >> 40) * 0x1p-24f; }

 private:
  std::uint64_t state_;
};

/// Values whose order of rounding shows: signed zeros, binary16's extremes,
/// values below its resolution, the smallest subnormals (their products with
/// a slope underflow to -0), and plain values of both signs.
float draw_value(Prng& rng) {
  static constexpr float kSpecial[] = {
      0.f,      -0.f,      1.f,      -1.f,     65504.f, -65504.f,
      1e-9f,    -1e-9f,    3e-8f,    -3e-8f,   FLT_MIN, -FLT_MIN,
      1e-45f,   -1e-45f,   1e-8f,    -1e-8f,   1e30f,   -1e30f};
  if (rng.below(3) == 0) {
    return kSpecial[rng.below(static_cast<std::int64_t>(std::size(kSpecial)))];
  }
  const float sign = rng.below(2) ? -1.f : 1.f;
  return sign * (rng.unit() * 4.f);
}

/// The reference: one element, each step rounded on its own, in order.
float ref_element(float acc, const float* bias, const float* residual,
                  std::optional<float> slope) {
  float v = acc;
  if (bias) v = v + *bias;
  if (residual) v = v + *residual;
  if (slope) v = v > 0.f ? v : *slope * v;
  return v;
}

void ref_epilogue(float* out, std::int64_t out_c, std::int64_t plane,
                  const float* bias, const float* residual,
                  std::optional<float> slope) {
  for (std::int64_t o = 0; o < out_c; ++o) {
    for (std::int64_t j = 0; j < plane; ++j) {
      const std::int64_t i = o * plane + j;
      out[i] = ref_element(out[i], bias ? bias + o : nullptr,
                           residual ? residual + i : nullptr, slope);
    }
  }
}

/// A deliberately wrong epilogue: the residual added before the bias.
void residual_before_bias(const float* acc, const EpilogueGrid& grid,
                          float* out, std::int64_t out_c, const float* bias,
                          const float* residual, std::optional<float> slope) {
  std::int64_t i = 0;
  for (std::int64_t o = 0; o < out_c; ++o) {
    for (std::int64_t z = 0; z < grid.d; ++z) {
      for (std::int64_t y = 0; y < grid.h; ++y) {
        for (std::int64_t x = 0; x < grid.w; ++x, ++i) {
          float v = acc[o * grid.cols + z * grid.plane + y * grid.row + x];
          if (residual) v = v + residual[i];
          if (bias) v = v + bias[o];
          if (slope) v = v > 0.f ? v : *slope * v;
          out[i] = v;
        }
      }
    }
  }
}

std::int64_t differing_bits(const float* a, const float* b, std::int64_t n) {
  std::int64_t diff = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    diff += std::memcmp(&a[i], &b[i], sizeof(float)) != 0 ? 1 : 0;
  }
  return diff;
}

const std::optional<float> kSlopes[] = {std::nullopt, 0.f,  0.01f, 0.5f,
                                        1.f,          -0.5f, 2.f};

/// Count the output floats where `fn` differs from the reference, over
/// seeded outputs of several shapes and every combination of steps: in
/// place on the packed result, and from a padded-pitch grid with halos of
/// one and three columns and rows, whose halo holds NaN.
std::int64_t run_kernel_level(EpilogueFn fn, std::int64_t* compared) {
  struct Shape {
    std::int64_t d, h, w;
  };
  static constexpr Shape kShapes[] = {{1, 1, 1},  {1, 1, 3}, {1, 1, 4},
                                      {1, 1, 7},  {1, 4, 4}, {1, 1, 37},
                                      {2, 3, 8},  {1, 6, 9}, {3, 2, 5},
                                      {1, 1, 129}};
  Prng rng(2026);
  std::int64_t diff = 0;
  for (const Shape& sh : kShapes) {
    const std::int64_t out_c = 3, plane = sh.d * sh.h * sh.w, n = out_c * plane;
    std::vector<float> acc(static_cast<std::size_t>(n)),
        residual(acc.size()), bias(static_cast<std::size_t>(out_c));
    for (float& v : acc) v = draw_value(rng);
    for (float& v : residual) v = draw_value(rng);
    for (float& v : bias) v = draw_value(rng);
    for (const std::int64_t halo : {0, 1, 3}) {
      const std::int64_t row = sh.w + 2 * halo, rows = sh.h + 2 * halo;
      // The last voxel ends the source's channel: (d-1, h-1, w-1).
      const std::int64_t cols =
          (sh.d - 1) * rows * row + (sh.h - 1) * row + sh.w;
      const EpilogueGrid grid{sh.d, sh.h, sh.w, row, rows * row, cols};
      // The result on the grid, NaN in its halo columns and rows.
      std::vector<float> src(static_cast<std::size_t>(out_c * grid.cols),
                             std::nanf(""));
      for (std::int64_t o = 0, i = 0; o < out_c; ++o)
        for (std::int64_t z = 0; z < sh.d; ++z)
          for (std::int64_t y = 0; y < sh.h; ++y)
            for (std::int64_t x = 0; x < sh.w; ++x, ++i) {
              src[static_cast<std::size_t>(o * grid.cols + z * grid.plane +
                                           y * grid.row + x)] =
                  acc[static_cast<std::size_t>(i)];
            }
      for (const bool with_bias : {false, true}) {
        for (const bool with_residual : {false, true}) {
          for (const std::optional<float> slope : kSlopes) {
            std::vector<float> got = acc, want = acc;
            const float* b = with_bias ? bias.data() : nullptr;
            const float* r = with_residual ? residual.data() : nullptr;
            if (halo == 0) {
              fn(got.data(), grid, got.data(), out_c, b, r, slope);
            } else {
              std::fill(got.begin(), got.end(), -1.f);
              fn(src.data(), grid, got.data(), out_c, b, r, slope);
            }
            ref_epilogue(want.data(), out_c, plane, b, r, slope);
            diff += differing_bits(got.data(), want.data(), n);
            *compared += n;
          }
        }
      }
    }
  }
  return diff;
}

TEST(ConvEpilogue, KernelMatchesScalarReference) {
  std::int64_t compared = 0;
  EXPECT_EQ(run_kernel_level(&nc::core::apply_epilogue, &compared), 0);
  EXPECT_GT(compared, 10000);
}

TEST(ConvEpilogue, ResidualBeforeBiasIsCaught) {
  std::int64_t compared = 0;
  EXPECT_GT(run_kernel_level(&residual_before_bias, &compared), 0);
}

TEST(ConvEpilogue, SignedZerosAndUnderflowKeepTheirSign) {
  // acc = -0 and acc * slope underflowing to -0 both come out as -0, and
  // +0 as +0, however the branch-free activation selects.
  const float in[] = {-0.f, 0.f, -1e-45f, 1e-45f};
  const std::uint32_t want[] = {0x80000000u, 0x00000000u, 0x80000000u,
                                0x00000001u};
  std::vector<float> out(std::begin(in), std::end(in));
  nc::core::apply_epilogue(out.data(), EpilogueGrid::packed(1, 1, 4),
                           out.data(), 1, nullptr, nullptr, 0.01f);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &out[i], sizeof bits);
    EXPECT_EQ(bits, want[i]) << "element " << i;
  }
}

// ---- layer level --------------------------------------------------------------

struct LayerCase {
  const char* what;
  bool three_d;
  std::int64_t in_c, out_c, k, pad;
};

constexpr LayerCase kLayerCases[] = {
    {"conv2d 3x3", false, 5, 7, 3, 1},
    {"conv2d 7x7", false, 16, 9, 7, 3},
    {"conv2d 1x1", false, 6, 5, 1, 0},
    {"conv3d 3x3x3", true, 3, 5, 3, 1},
    {"conv3d 1x1x1", true, 4, 3, 1, 0},
};

std::unique_ptr<nc::core::FusableConv> make_conv(const LayerCase& c,
                                                 bool bias,
                                                 nc::util::Rng& rng) {
  if (c.three_d) {
    return std::make_unique<nc::core::Conv3d>(
        c.in_c, c.out_c, std::array<std::int64_t, 3>{c.k, c.k, c.k},
        std::array<std::int64_t, 3>{1, 1, 1},
        std::array<std::int64_t, 3>{c.pad, c.pad, c.pad}, bias, rng);
  }
  return std::make_unique<nc::core::Conv2d>(
      c.in_c, c.out_c, std::array<std::int64_t, 2>{c.k, c.k},
      std::array<std::int64_t, 2>{1, 1},
      std::array<std::int64_t, 2>{c.pad, c.pad}, bias, rng);
}

/// Two samples: the first 10 % nonzero (Conv2d's sparse lowering in fp16
/// and int8), the second dense; values of every sign and size above.
Tensor make_input(const LayerCase& c, Prng& rng) {
  nc::core::Shape shape = {2, c.in_c};
  if (c.three_d) shape.push_back(4);
  shape.push_back(6);
  shape.push_back(9);
  Tensor x(shape);
  const std::int64_t per = x.numel() / 2;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (i >= per || rng.below(10) == 0) x[i] = draw_value(rng);
  }
  return x;
}

TEST(ConvEpilogue, EveryLoweringMatchesReference) {
  Prng rng(77);
  std::int64_t compared = 0, differing = 0;
  for (const LayerCase& c : kLayerCases) {
    nc::util::Rng init_a(11), init_b(11);
    auto layer = make_conv(c, true, init_a);
    auto twin = make_conv(c, false, init_b);  // same weights, no bias
    std::vector<nc::core::Param*> params;
    layer->collect_params(params);
    Tensor& bias = params[1]->value;
    for (std::int64_t o = 0; o < bias.numel(); ++o) bias[o] = draw_value(rng);
    const Tensor x = make_input(c, rng);
    for (const Mode mode : {Mode::kEvalHalf, Mode::kEvalInt8, Mode::kEval}) {
      const Tensor raw = twin->forward(x, mode);
      Tensor residual(raw.shape());
      for (std::int64_t i = 0; i < residual.numel(); ++i) {
        residual[i] = draw_value(rng);
      }
      const std::int64_t out_c = raw.dim(1);
      const std::int64_t plane = raw.numel() / (raw.dim(0) * out_c);
      for (const bool with_residual : {false, true}) {
        for (const std::optional<float> slope : kSlopes) {
          ConvEpilogue ep;
          ep.residual = with_residual ? &residual : nullptr;
          ep.leaky_slope = slope;
          const Tensor got = layer->forward_fused(x, mode, ep);
          Tensor want = raw.clone();
          for (std::int64_t s = 0; s < raw.dim(0); ++s) {
            const std::int64_t off = s * out_c * plane;
            ref_epilogue(want.data() + off, out_c, plane, bias.data(),
                         with_residual ? residual.data() + off : nullptr,
                         slope);
          }
          const std::int64_t d =
              differing_bits(got.data(), want.data(), want.numel());
          EXPECT_EQ(d, 0) << c.what << " mode " << static_cast<int>(mode)
                          << " residual " << with_residual << " slope "
                          << (slope ? *slope : -99.f);
          differing += d;
          compared += want.numel();
        }
      }
    }
  }
  EXPECT_EQ(differing, 0);
  EXPECT_GT(compared, 10000);
}

TEST(ConvEpilogue, MisuseThrows) {
  nc::util::Rng init(3);
  nc::core::Conv2d conv(2, 3, {3, 3}, {1, 1}, {1, 1}, true, init);
  const Tensor x({1, 2, 4, 4});
  EXPECT_THROW(conv.forward_fused(x, Mode::kTrain, {nullptr, 0.01f}),
               std::logic_error);
  const Tensor wrong({1, 3, 4, 5});
  EXPECT_THROW(conv.forward_fused(x, Mode::kEvalHalf, {&wrong, std::nullopt}),
               std::invalid_argument);
  // An empty epilogue is the plain forward, kTrain included.
  EXPECT_NO_THROW(conv.forward_fused(x, Mode::kTrain, {}));
}

// ---- concurrency ----------------------------------------------------------------

TEST(ConvEpilogue, ConcurrentFusedForwardsAgree) {
  // Pipeline workers share one model; the epilogue is per call, so fused
  // forwards from many threads must neither race nor mix.
  nc::bcae::Bcae2dConfig cfg;
  cfg.m = 2;
  cfg.n = 2;
  cfg.d = 2;
  auto model = nc::bcae::make_bcae_2d(cfg, 5);
  Prng rng(9);
  Tensor x({2, 16, 8, 12});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (rng.below(4) == 0) x[i] = 6.f + 4.f * rng.unit();
  }
  for (const Mode mode : {Mode::kEvalHalf, Mode::kEvalInt8}) {
    const Tensor code = model.encode(x, mode);
    const Tensor reg = model.decode(code, mode).reg;
    constexpr int kThreads = 4;
    std::vector<std::int64_t> diffs(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int rep = 0; rep < 3; ++rep) {
          const Tensor c = model.encode(x, mode);
          const Tensor r = model.decode(c, mode).reg;
          diffs[static_cast<std::size_t>(t)] +=
              differing_bits(c.data(), code.data(), code.numel()) +
              differing_bits(r.data(), reg.data(), reg.numel());
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(diffs[static_cast<std::size_t>(t)], 0) << "thread " << t;
    }
  }
}

}  // namespace
