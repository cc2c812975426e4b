/// Self-contained microbenchmarks for the compute kernels underlying every
/// table and figure: fp32 GEMM, the runtime-dispatched fp16 tile and int8
/// GEMM at every ISA tier the host supports (single thread, one call over
/// the whole matrix; each cell the median and range of interleaved passes),
/// the quantization passes feeding int8, the conv epilogue fused against
/// the unfused chain it replaces, and a dense-vs-sparse sweep of the conv
/// eval lowerings over input density, at 2-D and 3-D first-layer shapes
/// (the measurement behind conv.hpp's kSparseMaxDensity* crossovers).
///
/// These isolate the substrate so regressions in the headline throughput
/// numbers (Table 1, Fig. 6) can be attributed: if the int8 fast path's
/// advantage over scalar disappears here, the kEvalInt8 speedup story
/// collapses there.  Per-tier columns report speedup vs the scalar reference
/// so the dispatch win is a number, not a claim.
///
/// Output ends with a one-line JSON trailer (grep '^{') consumed by CI as
/// BENCH_kernels.json.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/act.hpp"
#include "core/conv.hpp"
#include "core/gemm.hpp"
#include "core/im2col.hpp"
#include "core/ops.hpp"
#include "core/quantize.hpp"
#include "core/simd_dispatch.hpp"
#include "core/tensor.hpp"
#include "util/half.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using nc::core::Tensor;
using nc::core::simd::Isa;

Tensor random_tensor(nc::core::Shape shape, std::uint64_t seed) {
  nc::util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Work/second of one timed batch of >= `min_s` seconds of `fn` (work =
/// flops or bytes per call).
template <typename Fn>
double batch_rate(double work_per_call, Fn&& fn, double min_s) {
  std::int64_t iters = 0;
  nc::util::Timer t;
  do {
    fn();
    ++iters;
  } while (t.elapsed_s() < min_s);
  return work_per_call * static_cast<double>(iters) / t.elapsed_s();
}

/// Best-of-3 throughput: the fastest of three timed batches.
template <typename Fn>
double best_rate(double work_per_call, Fn&& fn, double min_s = 0.12) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    best = std::max(best, batch_rate(work_per_call, fn, min_s));
  }
  return best;
}

/// The median and range of one kernel's rates over several passes.
struct Spread {
  double median = 0.0, lo = 0.0, hi = 0.0;
};

/// Time every kernel of `fns` once per pass, for `passes` passes, so that a
/// change in the host's speed during the run reaches every kernel alike;
/// return each kernel's median and min-max rate in GFLOP/s.  One timed
/// batch per cell read 84.7 and 119.8 GFLOP/s for the same tile on two runs.
std::vector<Spread> interleaved_gflops(
    double flops, const std::vector<std::function<void()>>& fns, int passes) {
  std::vector<std::vector<double>> rates(fns.size());
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t f = 0; f < fns.size(); ++f) {
      rates[f].push_back(batch_rate(flops, fns[f], 0.12) / 1e9);
    }
  }
  std::vector<Spread> out;
  for (std::vector<double>& r : rates) {
    std::sort(r.begin(), r.end());
    out.push_back({r[r.size() / 2], r.front(), r.back()});
  }
  return out;
}

/// Conv-forward shaped GEMMs: M = out channels, N = output pixels, K =
/// lowered patch size, at BCAE-representative shapes.
struct GemmShape {
  std::int64_t m, n, k;
  const char* what;
};

constexpr GemmShape kShapes[] = {
    {32, 3072, 784, "BCAE-2D L_in (k=7)"},
    {32, 768, 288, "BCAE-2D resblock conv"},
    {32, 3072, 288, "BCAE-2D decoder conv"},
    {8, 12288, 48, "BCAE++ stage-1 downsample"},
    {2, 12288, 48, "BCAE-HT stage-1 downsample"},
};

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (nc::core::simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

// ---- dense vs sparse conv lowering -----------------------------------------
//
// One sample through each lowering Conv2d/Conv3d::forward can take in
// kEvalHalf / kEvalInt8, with an explicit tier's kernels and without the
// bias (which both share).  Single-threaded, as each pipeline worker runs
// its convs.  The 2-D shapes are depth-1 volumes, as the layers run them.

struct ConvShape {
  std::int64_t in_c, out_c;
  std::array<std::int64_t, 3> dhw, k, s, p;  ///< (depth, height, width)
  const char* what;
};

constexpr ConvShape kConvShapes[] = {
    {16, 32, {1, 48, 64}, {1, 7, 7}, {1, 1, 1}, {0, 3, 3},
     "enc.in 16->32 7x7 48x64"},
    {32, 32, {1, 24, 32}, {1, 3, 3}, {1, 1, 1}, {0, 1, 1},
     "resblock 32->32 3x3 24x32"},
    // The 3-D models' first conv (enc.s0.down) on a 16x48x64 wedge.
    {1, 8, {16, 48, 64}, {3, 4, 4}, {1, 2, 2}, {1, 1, 1},
     "BCAE++ 1->8 3x4x4 s1x2x2"},
    {1, 2, {16, 48, 64}, {3, 4, 4}, {1, 2, 2}, {1, 1, 1},
     "BCAE-HT 1->2 3x4x4 s1x2x2"},
};

constexpr double kDensities[] = {0.01, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50, 1.00};

struct ConvLowering {
  nc::core::Conv3dGeom g;
  std::int64_t out_c;
  std::vector<nc::util::half> w_half;  ///< (out_c, rows)
  nc::core::QuantizedRows w_q;
  std::vector<float> slab_half, slab_q;  ///< (rows, out_c)
  std::vector<nc::util::half> xh, colh;
  std::vector<float> xs, acc, out;
  std::vector<std::int8_t> xq, q;  ///< input codes, lowered codes

  ConvLowering(const ConvShape& s, const Tensor& weight) : out_c(s.out_c) {
    g.c = s.in_c;
    g.d = s.dhw[0];
    g.h = s.dhw[1];
    g.w = s.dhw[2];
    g.kd = s.k[0];
    g.kh = s.k[1];
    g.kw = s.k[2];
    g.sd = s.s[0];
    g.sh = s.s[1];
    g.sw = s.s[2];
    g.pd = s.p[0];
    g.ph = s.p[1];
    g.pw = s.p[2];
    const std::int64_t rows = g.rows(), cols = g.cols();
    w_half.resize(static_cast<std::size_t>(out_c * rows));
    nc::util::float_to_half_n(weight.data(), w_half.data(), out_c * rows);
    w_q = nc::core::quantize_rows(weight.data(), out_c, rows);
    slab_half.resize(w_half.size());
    slab_q.resize(w_half.size());
    for (std::int64_t o = 0; o < out_c; ++o) {
      for (std::int64_t r = 0; r < rows; ++r) {
        const auto i = static_cast<std::size_t>(o * rows + r);
        const auto j = static_cast<std::size_t>(r * out_c + o);
        slab_half[j] = static_cast<float>(w_half[i]);
        slab_q[j] = static_cast<float>(w_q.values[i]);
      }
    }
    const auto numel = static_cast<std::size_t>(g.c * g.d * g.h * g.w);
    xh.resize(numel);
    xs.resize(numel);
    xq.resize(numel);
    q.resize(static_cast<std::size_t>(rows * cols));
    colh.resize(static_cast<std::size_t>(rows * cols));
    acc.resize(static_cast<std::size_t>(cols * out_c));
    out.resize(static_cast<std::size_t>(out_c * cols));
  }

  /// The dense lowering as the conv layers run it on one thread: binary16
  /// input, vol2col, one tile_hh over the whole matrix; or int8 codes of the
  /// input (every voxel of these layers is covered), vol2col of the codes,
  /// qgemm.
  void dense(const nc::core::simd::Kernels& ker, bool int8, const float* x) {
    const std::int64_t rows = g.rows(), cols = g.cols();
    const std::int64_t numel = g.c * g.d * g.h * g.w;
    if (int8) {
      const float scale = nc::core::quant_scale(ker.max_abs(x, numel));
      ker.quantize_scaled(x, numel, 1.f / scale, xq.data());
      nc::core::vol2col_3d(xq.data(), g, q.data());
      ker.qgemm(out_c, cols, rows, w_q.values.data(), w_q.scales.data(),
                q.data(), scale, out.data(), cols);
      return;
    }
    nc::util::float_to_half_sat_n(x, xh.data(), numel);
    nc::core::vol2col_3d(xh.data(), g, colh.data());
    ker.tile_hh(0, out_c, 0, cols, rows, w_half.data(), rows, colh.data(),
                cols, out.data(), cols);
  }

  /// Round or quantize the input, scatter, transpose (and scale).
  void sparse(const nc::core::simd::Kernels& ker, bool int8, const float* x) {
    const std::int64_t cols = g.cols(), numel = g.c * g.d * g.h * g.w;
    float act_scale = 1.f;
    if (int8) {
      act_scale = nc::core::quant_scale(ker.max_abs(x, numel));
      ker.quantize_scaled(x, numel, 1.f / act_scale, xq.data());
      std::copy(xq.begin(), xq.end(), xs.begin());
    } else {
      nc::util::float_to_half_sat_n(x, xh.data(), numel);
      nc::util::half_to_float_n(xh.data(), xs.data(), numel);
    }
    std::fill(acc.begin(), acc.end(), 0.f);
    ker.scatter_conv(xs.data(), g, out_c,
                     int8 ? slab_q.data() : slab_half.data(), acc.data());
    for (std::int64_t o = 0; o < out_c; ++o) {
      const float scale =
          int8 ? w_q.scales[static_cast<std::size_t>(o)] * act_scale : 1.f;
      for (std::int64_t p = 0; p < cols; ++p) {
        out[static_cast<std::size_t>(o * cols + p)] =
            acc[static_cast<std::size_t>(p * out_c + o)] * scale;
      }
    }
  }
};

// ---- conv epilogue: fused vs the unfused chain ------------------------------
//
// The tail of a norm-free ResBlock's second conv at the shape of enc.b1 (a
// batch of 8 x 32 x 24 x 32 outputs): bias, the skip add and LeakyReLU.
// Unfused is the layer-by-layer chain (a bias pass, add_inplace, then the
// LeakyReLU layer, which allocates its output), once with the branching
// activation `x > 0 ? x : slope * x` written out and once with the layer's
// branch-free one; fused is one apply_epilogue pass per sample.  Each call
// first restores the GEMM output, so every call sees the same signs.

struct EpilogueTimes {
  double restore_ms, branching_ms, unfused_ms, fused_ms;
};

EpilogueTimes epilogue_bench() {
  constexpr std::int64_t kN = 8, kC = 32, kPlane = 24 * 32;
  constexpr float kSlope = 0.01f;
  const Tensor acc = random_tensor({kN, kC, 24, 32}, 21);  // 50 % negative
  const Tensor skip = random_tensor({kN, kC, 24, 32}, 22);
  const Tensor bias = random_tensor({kC}, 23);
  Tensor h(acc.shape());
  const auto bytes = static_cast<std::size_t>(acc.numel()) * sizeof(float);
  auto restore = [&] { std::memcpy(h.data(), acc.data(), bytes); };
  auto bias_pass = [&] {
    for (std::int64_t s = 0; s < kN; ++s) {
      nc::core::apply_epilogue(h.data() + s * kC * kPlane, kC, kPlane,
                               bias.data(), nullptr, std::nullopt);
    }
  };
  nc::core::LeakyReLU act(kSlope);
  volatile float sink = 0.f;
  EpilogueTimes t{};
  t.restore_ms = 1e3 / best_rate(1.0, restore);
  t.branching_ms = 1e3 / best_rate(1.0, [&] {
    restore();
    bias_pass();
    nc::core::add_inplace(h, skip);
    Tensor y(h.shape());
    const float* xp = h.data();
    float* yp = y.data();
    for (std::int64_t i = 0; i < h.numel(); ++i) {
      yp[i] = xp[i] > 0.f ? xp[i] : kSlope * xp[i];
    }
    sink = yp[0];
  });
  t.unfused_ms = 1e3 / best_rate(1.0, [&] {
    restore();
    bias_pass();
    nc::core::add_inplace(h, skip);
    sink = act.forward(h, nc::core::Mode::kEval)[0];
  });
  t.fused_ms = 1e3 / best_rate(1.0, [&] {
    restore();
    for (std::int64_t s = 0; s < kN; ++s) {
      const std::int64_t off = s * kC * kPlane;
      nc::core::apply_epilogue(h.data() + off, kC, kPlane, bias.data(),
                               skip.data() + off, kSlope);
    }
    sink = h[0];
  });
  (void)sink;
  std::printf("\nconv epilogue at enc.b1 (8 x 32 x 24 x 32 outputs, bias + "
              "skip add + LeakyReLU) [ms per batch, 1 thread]:\n");
  std::printf("  %-44s %8.3f\n", "unfused, branching activation",
              t.branching_ms);
  std::printf("  %-44s %8.3f\n", "unfused, branch-free LeakyReLU layer",
              t.unfused_ms);
  std::printf("  %-44s %8.3f\n", "fused apply_epilogue", t.fused_ms);
  std::printf("  (each includes restoring the GEMM output: %.3f ms)\n",
              t.restore_ms);
  return t;
}

/// Input with the given nonzero fraction, values uniform in [-1, 1].
Tensor sparse_input(const ConvShape& s, double density, std::uint64_t seed) {
  nc::util::Rng rng(seed);
  Tensor t({s.in_c, s.dhw[0], s.dhw[1], s.dhw[2]});
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (rng.uniform(0.0, 1.0) < density) {
      t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return t;
}

/// Print the sweep table; return its rows as JSON objects.
std::string sparse_sweep(const std::vector<Isa>& isas) {
  std::printf("\nConv2d/Conv3d eval lowering, dense vs sparse [ms per sample, "
              "1 thread] by input density:\n");
  std::printf("  %-26s %-5s %-7s", "layer", "mode", "tier");
  for (double d : kDensities) std::printf(" %13.0f%%", 100.0 * d);
  std::printf("   crossover\n");
  std::string rows;
  char buf[256];
  for (const ConvShape& s : kConvShapes) {
    ConvLowering low(
        s, random_tensor({s.out_c, s.in_c * s.k[0] * s.k[1] * s.k[2]}, 4));
    std::vector<Tensor> inputs;
    for (std::size_t d = 0; d < std::size(kDensities); ++d) {
      inputs.push_back(sparse_input(s, kDensities[d], 10 + d));
    }
    for (const bool int8 : {false, true}) {
      for (Isa isa : isas) {
        const auto& ker = nc::core::simd::kernels_for(isa);
        std::printf("  %-26s %-5s %-7s", s.what, int8 ? "int8" : "fp16",
                    nc::core::simd::isa_name(isa));
        double crossover = 1.0;  // lowest swept density where dense wins
        for (std::size_t d = 0; d < std::size(kDensities); ++d) {
          const float* x = inputs[d].data();
          const double dense_ms =
              1e3 / best_rate(1.0, [&] { low.dense(ker, int8, x); }, 0.04);
          const double sparse_ms =
              1e3 / best_rate(1.0, [&] { low.sparse(ker, int8, x); }, 0.04);
          if (dense_ms < sparse_ms && kDensities[d] < crossover) {
            crossover = kDensities[d];
          }
          std::printf(" %6.2f/%6.2f", dense_ms, sparse_ms);
          std::snprintf(buf, sizeof(buf),
                        "%s{\"layer\":\"%s\",\"mode\":\"%s\",\"isa\":\"%s\","
                        "\"density\":%.2f,\"dense_ms\":%.4f,\"sparse_ms\":%.4f}",
                        rows.empty() ? "" : ",", s.what, int8 ? "int8" : "fp16",
                        nc::core::simd::isa_name(isa), kDensities[d], dense_ms,
                        sparse_ms);
          rows += buf;
        }
        std::printf("   %.0f%%\n", 100.0 * crossover);
      }
    }
  }
  std::printf("  (cells: dense/sparse; crossover: lowest swept density at "
              "which dense is faster)\n");
  return rows;
}

}  // namespace

int main() {
  const Isa active = nc::core::simd::active_isa();
  const char* env = std::getenv("NC_SIMD");
  std::printf("bench_kernels: simd dispatch resolved to %s (NC_SIMD=%s)\n",
              nc::core::simd::isa_name(active), env ? env : "auto");
  const std::vector<Isa> isas = supported_isas();

  // ---- GEMM family ---------------------------------------------------------
  // fp16 columns: each tier's tile_hh over the whole matrix; int8 columns:
  // each tier's qgemm.  Both single-threaded, as a pipeline worker runs them.
  nc::util::set_num_threads(1);
  constexpr int kPasses = 5;
  std::printf("\nGEMM throughput [GFLOP/s, 1 thread] (fp16 = tile_hh, int8 = "
              "qgemm, per tier; each cell the median (min-max) of %d "
              "interleaved passes; best/sc = speedup of the best tier's "
              "median vs its scalar reference's):\n",
              kPasses);
  std::printf("  %-26s %-20s", "shape (m,n,k)", "sgemm");
  for (const char* kind : {"fp16", "int8"}) {
    for (Isa isa : isas) {
      std::printf(" %4s/%-15s", kind, nc::core::simd::isa_name(isa));
    }
    std::printf(" %7s", "best/sc");
  }
  std::printf("\n");
  auto print_cell = [](const Spread& r) {
    std::printf(" %6.1f (%5.1f-%5.1f)", r.median, r.lo, r.hi);
  };

  // JSON accumulators: per-kernel median GFLOP/s averaged over the shape
  // set.
  double sum_sgemm = 0.0, sum_hgemm = 0.0;
  std::vector<double> sum_h(isas.size(), 0.0), sum_q(isas.size(), 0.0);

  for (const GemmShape& s : kShapes) {
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k);
    const Tensor a = random_tensor({s.m, s.k}, 1);
    const Tensor b = random_tensor({s.k, s.n}, 2);
    Tensor c({s.m, s.n});
    std::vector<nc::util::half> ah(static_cast<std::size_t>(s.m * s.k));
    std::vector<nc::util::half> bh(static_cast<std::size_t>(s.k * s.n));
    nc::util::float_to_half_n(a.data(), ah.data(), s.m * s.k);
    nc::util::float_to_half_n(b.data(), bh.data(), s.k * s.n);
    const auto qa = nc::core::quantize_rows(a.data(), s.m, s.k);
    std::vector<std::int8_t> qb(static_cast<std::size_t>(s.k * s.n));
    const float b_scale =
        nc::core::quantize_tensor(b.data(), s.k * s.n, qb.data());

    // sgemm, then each tier's tile_hh, then each tier's qgemm.
    std::vector<std::function<void()>> kernels{[&] {
      nc::core::sgemm(false, false, s.m, s.n, s.k, 1.f, a.data(), s.k,
                      b.data(), s.n, 0.f, c.data(), s.n);
    }};
    for (const bool int8 : {false, true}) {
      for (Isa isa : isas) {
        const nc::core::simd::Kernels* ker = &nc::core::simd::kernels_for(isa);
        kernels.emplace_back([&, ker, int8] {
          if (int8) {
            ker->qgemm(s.m, s.n, s.k, qa.values.data(), qa.scales.data(),
                       qb.data(), b_scale, c.data(), s.n);
          } else {
            ker->tile_hh(0, s.m, 0, s.n, s.k, ah.data(), s.k, bh.data(), s.n,
                         c.data(), s.n);
          }
        });
      }
    }
    const std::vector<Spread> r = interleaved_gflops(flops, kernels, kPasses);

    std::printf("  %3lld x %5lld x %4lld %-7s", static_cast<long long>(s.m),
                static_cast<long long>(s.n), static_cast<long long>(s.k), "");
    print_cell(r[0]);
    sum_sgemm += r[0].median;
    std::size_t at = 1;
    for (const bool int8 : {false, true}) {
      double scalar_g = 0.0, best_g = 0.0;
      for (std::size_t t = 0; t < isas.size(); ++t, ++at) {
        const double g = r[at].median;
        if (isas[t] == Isa::kScalar) scalar_g = g;
        best_g = std::max(best_g, g);
        (int8 ? sum_q : sum_h)[t] += g;
        print_cell(r[at]);
      }
      std::printf(" %6.2fx", scalar_g > 0.0 ? best_g / scalar_g : 0.0);
    }
    std::printf("  # %s\n", s.what);
  }
  // hgemm on one thread is one call of the active tier's tile_hh.
  for (std::size_t t = 0; t < isas.size(); ++t) {
    if (isas[t] == active) sum_hgemm = sum_h[t];
  }

  // ---- quantization passes -------------------------------------------------
  const std::int64_t qn = 1 << 20;
  const Tensor x = random_tensor({qn}, 3);
  std::vector<std::int8_t> q8(static_cast<std::size_t>(qn));
  std::printf("\nquantize passes on %lld floats [Gelem/s]:\n",
              static_cast<long long>(qn));
  std::printf("  %-16s", "pass");
  for (Isa isa : isas) std::printf(" %10s", nc::core::simd::isa_name(isa));
  std::printf("\n");
  std::vector<double> maxabs_r(isas.size()), quant_r(isas.size());
  for (std::size_t t = 0; t < isas.size(); ++t) {
    const auto& ker = nc::core::simd::kernels_for(isas[t]);
    volatile float sink = 0.f;
    maxabs_r[t] = best_rate(static_cast<double>(qn), [&] {
      sink = ker.max_abs(x.data(), qn);
    }) / 1e9;
    (void)sink;
    quant_r[t] = best_rate(static_cast<double>(qn), [&] {
      ker.quantize_scaled(x.data(), qn, 127.f, q8.data());
    }) / 1e9;
  }
  std::printf("  %-16s", "max_abs");
  for (double r : maxabs_r) std::printf(" %10.2f", r);
  std::printf("\n  %-16s", "quantize_scaled");
  for (double r : quant_r) std::printf(" %10.2f", r);
  std::printf("\n");

  const EpilogueTimes ep = epilogue_bench();
  const std::string sweep = sparse_sweep(isas);

  // ---- JSON trailer --------------------------------------------------------
  const double n_shapes = static_cast<double>(std::size(kShapes));
  auto by_tier = [&](const std::vector<double>& sums, bool speedup) {
    double scalar_avg = 0.0;
    for (std::size_t t = 0; t < isas.size(); ++t) {
      if (isas[t] == Isa::kScalar) scalar_avg = sums[t] / n_shapes;
    }
    std::string json;
    char buf[128];
    for (std::size_t t = 0; t < isas.size(); ++t) {
      const double avg = sums[t] / n_shapes;
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%.3f", t ? "," : "",
                    nc::core::simd::isa_name(isas[t]),
                    speedup ? (scalar_avg > 0.0 ? avg / scalar_avg : 0.0) : avg);
      json += buf;
    }
    return json;
  };
  std::printf(
      "\n{\"bench\":\"kernels\",\"isa\":\"%s\",\"sgemm_gflops\":%.3f,"
      "\"hgemm_gflops\":%.3f,\"hgemm_gflops_by_tier\":{%s},"
      "\"hgemm_speedup_vs_scalar\":{%s},\"qgemm_gflops\":{%s},"
      "\"qgemm_speedup_vs_scalar\":{%s},\"maxabs_gelems\":%.3f,"
      "\"quantize_gelems\":%.3f,\"epilogue_ms\":{\"restore\":%.4f,"
      "\"unfused_branching\":%.4f,\"unfused\":%.4f,\"fused\":%.4f},"
      "\"conv_lowering_sweep\":[%s]}\n",
      nc::core::simd::isa_name(active), sum_sgemm / n_shapes,
      sum_hgemm / n_shapes, by_tier(sum_h, false).c_str(),
      by_tier(sum_h, true).c_str(), by_tier(sum_q, false).c_str(),
      by_tier(sum_q, true).c_str(), maxabs_r.back(), quant_r.back(),
      ep.restore_ms, ep.branching_ms, ep.unfused_ms, ep.fused_ms,
      sweep.c_str());
  return 0;
}
