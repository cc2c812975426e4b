/// Whole-model output bits of the eval forwards, pinned by golden hashes.
///
/// Each test builds one BCAE variant (BCAE-2D, BCAE++, BCAE-HT and the
/// original BCAE with instance norms), encodes 16 seeded wedges in
/// kEvalHalf and kEvalInt8 (and BCAE-2D also in kEval), and decodes the
/// first 8 codes through both heads and the segmentation mask.  Every
/// output is hashed per sample (FNV-1a over the float bit patterns); the
/// hashes of a model and mode fold into one value that must equal the
/// golden one.  Encodes run in batches of 8 and one wedge at a time, decodes
/// in one batch of 8 and one code at a time, and every sample must hash
/// alike in both: samples are independent, whatever the batch.
///
/// What the golden values pin: the outputs of the layer-by-layer eval
/// forwards (every conv storing its raw GEMM result plus bias, separate
/// activation layers, a separate residual add).  Any later lowering,
/// fusion or kernel must reproduce them bit for bit, on every SIMD tier
/// (the conv contract in core/conv.hpp) and at any thread count.  The
/// inputs come from the seeded TPC event generator and the weights from
/// the models' seeded initializers; both call libm (log, exp, cos), so the
/// values assume glibc's libm on x86-64, as built by GCC 12.  One wedge is
/// replaced by a dense one so that the encoders' first conv also takes its
/// dense lowering.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bcae/model.hpp"
#include "core/simd_dispatch.hpp"
#include "tpc/dataset.hpp"

namespace {

using nc::bcae::BcaeModel;
using nc::core::Mode;
using nc::core::Tensor;

constexpr std::int64_t kWedges = 16;
constexpr std::int64_t kDecodes = 8;
constexpr std::int64_t kBatch = 8;
constexpr std::uint64_t kModelSeed = 7;

std::uint64_t fnv1a(const float* x, std::int64_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (std::int64_t i = 0; i < n; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &x[i], sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// 16 seeded wedges of 1/8 scale, (16, 32, 32) after padding; wedge 5 is
/// overwritten with a dense one (every voxel nonzero, log-ADC 6 to 10).
const std::vector<Tensor>& wedges() {
  static const std::vector<Tensor> w = [] {
    nc::tpc::DatasetConfig cfg;
    cfg.n_events = 1;
    cfg.geometry.scale = 0.125;
    cfg.seed = 4242;
    const auto ds = nc::tpc::WedgeDataset::generate(cfg);
    std::vector<Tensor> out;
    for (const auto* pool : {&ds.train(), &ds.test()}) {
      for (const Tensor& t : *pool) {
        if (static_cast<std::int64_t>(out.size()) < kWedges) out.push_back(t);
      }
    }
    Tensor dense = out[5].clone();
    std::uint32_t state = 12345u;
    for (std::int64_t i = 0; i < dense.numel(); ++i) {
      state = state * 1664525u + 1013904223u;
      dense[i] = 6.f + static_cast<float>(state >> 8) * 0x1p-22f;
    }
    out[5] = dense;
    return out;
  }();
  return w;
}

/// Stack samples [begin, end) of `items` (each one sample's tensor, without
/// the batch axis) into a batch, adding a channel axis of 1 for 3-D models.
Tensor stack(const std::vector<Tensor>& items, std::int64_t begin,
             std::int64_t end, bool add_channel) {
  nc::core::Shape shape = {end - begin};
  if (add_channel) shape.push_back(1);
  for (std::int64_t d : items[static_cast<std::size_t>(begin)].shape()) {
    shape.push_back(d);
  }
  Tensor out(shape);
  const std::int64_t numel = items[static_cast<std::size_t>(begin)].numel();
  for (std::int64_t s = begin; s < end; ++s) {
    std::memcpy(out.data() + (s - begin) * numel,
                items[static_cast<std::size_t>(s)].data(),
                static_cast<std::size_t>(numel) * sizeof(float));
  }
  return out;
}

/// Sample s of a batch, without the batch axis.
Tensor sample(const Tensor& batch, std::int64_t s) {
  nc::core::Shape shape(batch.shape().begin() + 1, batch.shape().end());
  Tensor out(shape);
  const std::int64_t numel = out.numel();
  std::memcpy(out.data(), batch.data() + s * numel,
              static_cast<std::size_t>(numel) * sizeof(float));
  return out;
}

std::uint64_t sample_hash(const Tensor& batch, std::int64_t s) {
  const std::int64_t numel = batch.numel() / batch.dim(0);
  return fnv1a(batch.data() + s * numel, numel);
}

/// Per-sample hash of the heads and the masked reconstruction.
std::uint64_t decode_hash(const BcaeModel::Heads& h, std::int64_t s) {
  const Tensor recon = BcaeModel::reconstruct(h);
  std::uint64_t out = sample_hash(h.seg_logits, s);
  out = out * 31 + sample_hash(h.reg, s);
  return out * 31 + sample_hash(recon, s);
}

std::uint64_t fold(const std::vector<std::uint64_t>& hashes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t v : hashes) {
    h ^= v;
    h *= 0x100000001b3ull;
  }
  return h;
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kEvalHalf:
      return "kEvalHalf";
    case Mode::kEvalInt8:
      return "kEvalInt8";
    case Mode::kEval:
      return "kEval";
    case Mode::kTrain:
      break;
  }
  return "kTrain";
}

struct Golden {
  Mode mode;
  std::uint64_t encode, decode;
};

void check_model(BcaeModel model, const std::vector<Golden>& goldens) {
  const bool three_d = model.is_3d();
  const std::vector<Tensor>& in = wedges();
  for (const Golden& g : goldens) {
    SCOPED_TRACE(model.name() + " " + mode_name(g.mode));
    // Encode: batches of 8, then one wedge at a time.
    std::vector<Tensor> codes;
    std::vector<std::uint64_t> enc;
    for (std::int64_t b = 0; b < kWedges; b += kBatch) {
      const Tensor code = model.encode(stack(in, b, b + kBatch, three_d), g.mode);
      for (std::int64_t s = 0; s < kBatch; ++s) {
        enc.push_back(sample_hash(code, s));
        codes.push_back(sample(code, s));
      }
    }
    for (std::int64_t s = 0; s < kWedges; ++s) {
      const Tensor code = model.encode(stack(in, s, s + 1, three_d), g.mode);
      EXPECT_EQ(sample_hash(code, 0), enc[static_cast<std::size_t>(s)])
          << "wedge " << s << " encodes differently alone than in a batch";
    }
    // Decode: one batch of 8, then one code at a time.
    std::vector<std::uint64_t> dec;
    const BcaeModel::Heads heads =
        model.decode(stack(codes, 0, kDecodes, false), g.mode);
    for (std::int64_t s = 0; s < kDecodes; ++s) dec.push_back(decode_hash(heads, s));
    for (std::int64_t s = 0; s < kDecodes; ++s) {
      const BcaeModel::Heads one =
          model.decode(stack(codes, s, s + 1, false), g.mode);
      EXPECT_EQ(decode_hash(one, 0), dec[static_cast<std::size_t>(s)])
          << "code " << s << " decodes differently alone than in a batch";
    }
    const std::uint64_t enc_hash = fold(enc), dec_hash = fold(dec);
    std::printf("golden bits (%s): %s %s encode 0x%016llx decode 0x%016llx\n",
                nc::core::simd::isa_name(nc::core::simd::active_isa()),
                model.name().c_str(), mode_name(g.mode),
                static_cast<unsigned long long>(enc_hash),
                static_cast<unsigned long long>(dec_hash));
    EXPECT_EQ(enc_hash, g.encode) << "encoder output bits changed";
    EXPECT_EQ(dec_hash, g.decode) << "decoder output bits changed";
  }
}

TEST(GoldenBits, Bcae2d) {
  check_model(nc::bcae::make_bcae_2d(nc::bcae::Bcae2dConfig{}, kModelSeed),
              {{Mode::kEvalHalf, 0x9a725f9224314374ull, 0x99788365202ca138ull},
               {Mode::kEvalInt8, 0x23dc4d9d7e12e165ull, 0x829db4a1086afa10ull},
               {Mode::kEval, 0x7c36f68c90018ef1ull, 0xe5b26b9254515a20ull}});
}

TEST(GoldenBits, BcaePlusPlus) {
  check_model(nc::bcae::make_bcae_pp(kModelSeed),
              {{Mode::kEvalHalf, 0x6e767524b4fdd2fdull, 0x15870f5fc2bb12b9ull},
               {Mode::kEvalInt8, 0xb10f997d0c67f9a8ull, 0x502a384a1867caacull}});
}

TEST(GoldenBits, BcaeHt) {
  check_model(nc::bcae::make_bcae_ht(kModelSeed),
              {{Mode::kEvalHalf, 0xb99e306f163b11e2ull, 0x42db6b39a270e6bdull},
               {Mode::kEvalInt8, 0x85489bb93ee84219ull, 0x23f06f71c5185101ull}});
}

TEST(GoldenBits, BcaeOriginalWithNorms) {
  check_model(nc::bcae::make_bcae_original(kModelSeed),
              {{Mode::kEvalHalf, 0xdc0b9ff86821ae80ull, 0x448b6ddbe0f84b4full},
               {Mode::kEvalInt8, 0x003b2f734d09860eull, 0x36397b5efa900bacull}});
}

}  // namespace
