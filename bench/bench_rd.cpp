/// \file bench_rd.cpp
/// \brief Rate–distortion–throughput arena over every registered WedgeCodec.
///
/// The paper's core claim (§1, Table 1) is comparative: the learned BCAE
/// holds a much higher compression ratio than generic lossy compressors at
/// comparable reconstruction quality on sparse zero-suppressed wedges.
/// bench_baselines measures that with direct single-threaded codec calls;
/// this bench re-asks the question through the *deployment* path — every
/// codec the registry knows (bcae-fp32/fp16/int8, zfp, sz, mgard) streamed
/// through the same StreamCompressor -> envelope store -> StreamDecompressor
/// workload, so ratio, distortion and throughput are measured under the
/// exact machinery production would use (batching, worker pool, ordered
/// reorder, codec-tagged envelopes).
///
/// The final stdout line is a single machine-readable JSON document — the
/// per-codec {ratio, MAE, PSNR, wedges/s} matrix — greppable with '^{';
/// CI uploads it as the BENCH_rd.json artifact next to BENCH_stream.json.
///
/// Run:  ./bench_rd [--wedges 16] [--workers 0] [--batch 4]
///       (--workers 0 = min(4, hardware_concurrency))
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "codec/stream.hpp"
#include "codec/wedge_codec.hpp"
#include "metrics/metrics.hpp"
#include "util/cli.hpp"
#include "util/topology.hpp"

namespace {

struct ArenaRow {
  std::string name;
  unsigned codec_id = 0;
  double ratio = 0.0;
  double mae = 0.0;
  double psnr = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double compress_wps = 0.0;
  double decompress_wps = 0.0;
  long long failed = 0;
};

std::string json_rows(const std::vector<ArenaRow>& rows) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"codec_id\":%u,\"ratio\":%.4f,"
                  "\"mae\":%.6f,\"psnr\":%.3f,\"precision\":%.4f,"
                  "\"recall\":%.4f,\"compress_wps\":%.2f,"
                  "\"decompress_wps\":%.2f,\"failed\":%lld}",
                  i ? "," : "", rows[i].name.c_str(), rows[i].codec_id,
                  rows[i].ratio, rows[i].mae, rows[i].psnr, rows[i].precision,
                  rows[i].recall, rows[i].compress_wps, rows[i].decompress_wps,
                  rows[i].failed);
    out += buf;
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nc;
  util::ArgParser args("bench_rd",
                       "rate-distortion arena: every registered codec through "
                       "the streamed deployment path");
  args.add_option("wedges", "16", "test wedges pushed through each codec");
  args.add_option("workers", "0",
                  "stream workers (0 = min(4, hardware_concurrency))");
  args.add_option("batch", "4", "codec batch size");
  if (!args.parse(argc, argv)) return 1;

  const auto& ds = bench::bench_dataset();
  std::vector<core::Tensor> wedges;
  const std::size_t want =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("wedges")));
  for (std::size_t i = 0; i < want && i < ds.test().size(); ++i) {
    wedges.push_back(tpc::clip_horizontal(ds.test()[i], ds.valid_horiz()));
  }
  const std::int64_t voxels_per_wedge = wedges.front().numel();
  const std::int64_t total_voxels =
      voxels_per_wedge * static_cast<std::int64_t>(wedges.size());

  // One briefly-trained BCAE-2D backs all three bcae-* arena entries; the
  // baselines ignore the model.  Same training protocol as bench_baselines
  // so the two benches' BCAE rows are comparable.
  auto model = bcae::make_bcae_2d(bcae::Bcae2dConfig{}, 2023);
  const auto tc = bench::bench_trainer_config(false);
  const double train_s = bench::train_model(model, ds, tc);
  std::fprintf(stderr, "[bench] trained %s in %.1fs\n", model.name().c_str(),
               train_s);

  std::size_t n_workers = static_cast<std::size_t>(
      std::max<std::int64_t>(0, args.get_int("workers")));
  if (n_workers == 0) {
    n_workers = std::min<std::size_t>(4, util::hardware_threads());
  }
  codec::StreamOptions opt;
  opt.n_workers = n_workers;
  opt.batch_size =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("batch")));
  opt.queue_capacity = std::max<std::size_t>(16, 2 * wedges.size());

  std::vector<ArenaRow> rows;
  for (const auto& name : codec::registered_codec_names()) {
    const auto wedge_codec = codec::make_wedge_codec(name, model);

    // Write side: raw wedges -> codec-tagged envelopes, keyed by seq.
    std::mutex store_mutex;
    std::map<std::uint64_t, codec::WedgeEnvelope> storage;
    util::Timer ctimer;
    codec::StreamCompressor compressor(
        *wedge_codec, opt,
        [&](std::uint64_t seq, codec::WedgeEnvelope&& env) {
          std::lock_guard<std::mutex> lock(store_mutex);
          storage.emplace(seq, std::move(env));
        });
    for (const auto& w : wedges) compressor.submit(w);
    const auto cstats = compressor.finish();
    const double compress_s = ctimer.elapsed_s();

    // Read side: envelopes -> reconstructions, in submission order.
    codec::StreamOptions dopt = opt;
    dopt.ordered = true;
    std::vector<core::Tensor> decoded;
    util::Timer dtimer;
    codec::StreamDecompressor decompressor(
        *wedge_codec, dopt, [&](std::uint64_t, core::Tensor&& w) {
          decoded.push_back(std::move(w));
        });
    for (const auto& [seq, env] : storage) decompressor.submit(env);
    const auto dstats = decompressor.finish();
    const double decompress_s = dtimer.elapsed_s();

    metrics::MetricsAccumulator acc;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      acc.add(metrics::evaluate_reconstruction(decoded[i], wedges[i]),
              wedges[i].numel());
    }
    const auto m = acc.result();

    ArenaRow row;
    row.name = name;
    row.codec_id = static_cast<unsigned>(wedge_codec->codec_id());
    // The envelope's uniform fp16 accounting (§3.1): fp16 wedge volume over
    // stored payload bytes, identical formula for every codec.
    row.ratio = baselines::fp16_storage_ratio(total_voxels,
                                              cstats.payload_bytes);
    row.mae = m.mae;
    row.psnr = m.psnr;
    row.precision = m.precision;
    row.recall = m.recall;
    row.compress_wps = static_cast<double>(cstats.wedges_compressed) / compress_s;
    row.decompress_wps =
        static_cast<double>(dstats.wedges_compressed) / decompress_s;
    row.failed = cstats.wedges_failed + dstats.wedges_failed;
    rows.push_back(row);
  }

  std::printf("\nRate-distortion arena — %zu wedges of %s through the "
              "streamed path (%zu workers, batch %zu)\n",
              wedges.size(), ds.wedge_shape().to_string().c_str(), n_workers,
              opt.batch_size);
  bench::print_rule(104);
  std::printf("%-12s %4s %8s %10s %9s %10s %8s %13s %13s\n", "codec", "id",
              "ratio", "MAE", "PSNR", "precision", "recall", "enc wedges/s",
              "dec wedges/s");
  bench::print_rule(104);
  for (const auto& r : rows) {
    std::printf("%-12s %4u %8.2f %10.4f %9.2f %10.3f %8.3f %13.1f %13.1f\n",
                r.name.c_str(), r.codec_id, r.ratio, r.mae, r.psnr,
                r.precision, r.recall, r.compress_wps, r.decompress_wps);
  }
  bench::print_rule(104);
  std::printf("BCAE rows hold a fixed code-size ratio; the generic codecs "
              "trade ratio for error wedge by wedge (paper Table 1 shape).\n");

  // Machine-readable trailer (single line, greppable with '^{').
  std::printf("\n{\"bench\":\"rd\",\"wedges\":%zu,\"voxels_per_wedge\":%lld,"
              "\"workers\":%zu,\"batch\":%zu,\"train_s\":%.1f,\"codecs\":%s}\n",
              wedges.size(), static_cast<long long>(voxels_per_wedge),
              n_workers, opt.batch_size, train_s, json_rows(rows).c_str());
  return 0;
}
