/// \file bench_stream.cpp
/// \brief Worker-count scaling sweep for both streaming directions and both
///        intake layers.
///
/// Measures wedges/s through StreamCompressor (encode) and
/// StreamDecompressor (decode, the offline-analysis side) as n_workers grows
/// from 1 to the hardware concurrency, once with the single shared
/// BoundedQueue and once with the sharded work-stealing intake.  The
/// workers share the OpenMP core budget: StreamPipeline gives each a team of
/// budget / live workers (at least 1), so up to the budget a row changes how
/// the cores are split between workers and intra-op threads, not how many
/// threads run.  The comparison is what the sharded intake claims: at
/// high worker counts the sharded rows should be no worse than the
/// single-queue rows (the shared queue's mutex is the contention point the
/// shards remove), and the `stolen` column shows the stealing actually
/// firing.
///
/// A burst sweep follows: a 4x-capacity try_submit burst with the spill
/// tier enabled, per intake mode — the lossless-backpressure claim
/// (wedges_dropped == 0, every spilled wedge replayed) measured rather than
/// assumed, with the spilled/replayed counts in the JSON trailer.
///
/// An elastic-vs-static comparison closes the run: the same bursty profile
/// (quiet trickle -> flood -> quiet trickle) through a static max-size pool
/// and an elastic pool (min 1, same ceiling), reporting burst drain
/// throughput, scale events and quiet-phase live workers — the elastic
/// pool's pitch is matching the static pool's burst throughput at strictly
/// fewer live workers when the detector is quiet.
///
/// The final stdout line is a single machine-readable JSON document
/// (wedges/s per worker count, both directions, both intakes, plus the
/// burst rows) so perf trajectories can be tracked across commits by
/// scraping `grep '^{'` from the output — CI uploads it as the
/// BENCH_stream.json artifact.
///
/// Run:  ./bench_stream [--wedges 64] [--batch 4] [--max-workers 0]
///       (--max-workers 0 = sweep up to hardware_concurrency, min 4)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "codec/stream.hpp"
#include "tpc/dataset.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"
#include "util/topology.hpp"

namespace {

struct SweepPoint {
  std::size_t workers = 0;
  double wall_s = 0.0;
  double wps = 0.0;
  double speedup = 0.0;
  double cpu_per_wall = 0.0;
  long long stolen = 0;
};

void print_point(const SweepPoint& p) {
  std::printf("  %-8zu %12.3f %12.1f %9.2fx %10.2f %8lld\n", p.workers,
              p.wall_s, p.wps, p.speedup, p.cpu_per_wall, p.stolen);
}

struct ElasticPoint {
  const char* mode = "";
  double burst_s = 0.0;     ///< burst submit -> last burst wedge sunk
  double burst_wps = 0.0;
  long long up = 0;         ///< scale-up events
  long long down = 0;       ///< scale-down events
  double avg_live = 0.0;    ///< time-weighted mean live workers (whole run)
  double quiet_live = 0.0;  ///< mean live workers sampled in quiet phases
};

std::string json_elastic(const ElasticPoint& p) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"mode\":\"%s\",\"burst_s\":%.4f,\"burst_wps\":%.2f,"
                "\"scale_up\":%lld,\"scale_down\":%lld,\"avg_live\":%.2f,"
                "\"quiet_live\":%.2f}",
                p.mode, p.burst_s, p.burst_wps, p.up, p.down, p.avg_live,
                p.quiet_live);
  return buf;
}

struct BurstPoint {
  std::size_t workers = 0;
  std::size_t capacity = 0;
  long long wedges = 0;
  double wall_s = 0.0;
  double wps = 0.0;
  long long spilled = 0;
  long long replayed = 0;
  long long dropped = 0;
};

std::string json_burst(const BurstPoint& p) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"workers\":%zu,\"capacity\":%zu,\"wedges\":%lld,"
                "\"wall_s\":%.4f,\"wps\":%.2f,\"spilled\":%lld,"
                "\"replayed\":%lld,\"dropped\":%lld}",
                p.workers, p.capacity, p.wedges, p.wall_s, p.wps, p.spilled,
                p.replayed, p.dropped);
  return buf;
}

std::string json_points(const std::vector<SweepPoint>& points) {
  std::string out = "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"workers\":%zu,\"wall_s\":%.4f,\"wps\":%.2f,"
                  "\"speedup\":%.3f,\"cpu_per_wall\":%.3f,\"stolen\":%lld}",
                  i ? "," : "", points[i].workers, points[i].wall_s,
                  points[i].wps, points[i].speedup, points[i].cpu_per_wall,
                  points[i].stolen);
    out += buf;
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nc;
  util::ArgParser args("bench_stream",
                       "StreamCompressor/StreamDecompressor worker scaling sweep");
  args.add_option("wedges", "64", "wedges pushed through the pipeline per run");
  args.add_option("batch", "4", "codec batch size");
  args.add_option("max-workers", "0",
                  "sweep ceiling (0 = hardware_concurrency, min 4)");
  if (!args.parse(argc, argv)) return 1;

  tpc::DatasetConfig cfg;
  cfg.n_events = 2;
  cfg.geometry.scale = 0.125;
  cfg.train_fraction = 0.5;
  const auto dataset = tpc::WedgeDataset::generate(cfg);
  std::vector<core::Tensor> wedges;
  for (const auto& w : dataset.train()) {
    wedges.push_back(tpc::clip_horizontal(w, dataset.valid_horiz()));
  }

  auto model = bcae::make_bcae_2d(bcae::Bcae2dConfig{}, 7);
  codec::BcaeWedgeCodec wedge_codec(model, core::Mode::kEvalHalf);
  // Warm the fp16 weight caches (encoder and both decoder heads) so the
  // sweeps time steady-state throughput.
  (void)wedge_codec.decompress(wedge_codec.compress(wedges.front()));

  // The decode sweep replays pre-compressed wedges: storage -> analysis.
  std::vector<codec::WedgeEnvelope> stored;
  for (const auto& w : wedges) stored.push_back(wedge_codec.compress(w));

  const unsigned hw = static_cast<unsigned>(util::hardware_threads());
  std::size_t max_workers = static_cast<std::size_t>(
      std::max<std::int64_t>(0, args.get_int("max-workers")));
  if (max_workers == 0) max_workers = std::max(4u, hw);
  const std::int64_t n_wedges = std::max<std::int64_t>(1, args.get_int("wedges"));
  const std::size_t batch =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("batch")));

  std::printf("bench_stream: %lld wedges of %s, batch %lld, hardware threads %u\n",
              static_cast<long long>(n_wedges),
              dataset.wedge_shape().to_string().c_str(),
              static_cast<long long>(batch), hw);

  std::vector<std::size_t> sweep;
  for (std::size_t w = 1; w <= max_workers; w *= 2) sweep.push_back(w);
  if (sweep.back() != max_workers) sweep.push_back(max_workers);

  const codec::IntakeMode intakes[] = {codec::IntakeMode::kSingleQueue,
                                       codec::IntakeMode::kSharded};

  // One run of either direction at a given worker count and intake mode;
  // returns the pipeline stats for the derived columns.  The speedup column
  // is relative to the single-queue 1-worker baseline of the direction, so
  // the two intake blocks are directly comparable.
  const auto run_sweep = [&](const char* label, auto&& run_one) {
    std::vector<std::vector<SweepPoint>> blocks;
    double base_wps = 0.0;
    for (const auto intake : intakes) {
      std::printf("\n%s direction, %s intake:\n", label,
                  codec::to_string(intake));
      std::printf("  %-8s %12s %12s %10s %10s %8s\n", "workers", "wall [s]",
                  "wps", "speedup", "cpu/wall", "stolen");
      std::vector<SweepPoint> points;
      for (const std::size_t n_workers : sweep) {
        codec::StreamOptions opt;
        opt.queue_capacity = std::max<std::size_t>(64, 4 * n_workers);
        opt.batch_size = batch;
        opt.n_workers = n_workers;
        opt.intake = intake;
        util::Timer wall;
        const codec::StreamStats stats = run_one(opt);
        const double wall_s = wall.elapsed_s();
        SweepPoint p;
        p.workers = n_workers;
        p.wall_s = wall_s;
        p.wps = wall_s > 0
                    ? static_cast<double>(stats.wedges_compressed) / wall_s
                    : 0.0;
        if (base_wps == 0.0) base_wps = p.wps;  // single-queue, 1 worker
        p.speedup = base_wps > 0 ? p.wps / base_wps : 0.0;
        p.cpu_per_wall =
            stats.elapsed_s > 0 ? stats.cpu_s / stats.elapsed_s : 0.0;
        p.stolen = static_cast<long long>(stats.batches_stolen);
        print_point(p);
        points.push_back(p);
        if (stats.wedges_compressed != n_wedges) {
          std::fprintf(stderr, "ERROR: %s processed %lld of %lld wedges\n",
                       label, static_cast<long long>(stats.wedges_compressed),
                       static_cast<long long>(n_wedges));
          std::exit(1);
        }
      }
      blocks.push_back(std::move(points));
    }
    return blocks;  // [0] = single queue, [1] = sharded
  };

  const auto compress_blocks =
      run_sweep("compress", [&](const codec::StreamOptions& opt) {
        // The unordered sink runs concurrently across workers: tally atomically.
        std::atomic<std::int64_t> bytes{0};
        codec::StreamCompressor stream(
            wedge_codec, opt, [&bytes](codec::WedgeEnvelope&& cw) {
              bytes.fetch_add(cw.payload_bytes(), std::memory_order_relaxed);
            });
        for (std::int64_t i = 0; i < n_wedges; ++i) {
          stream.submit(wedges[static_cast<std::size_t>(i) % wedges.size()]);
        }
        return stream.finish();
      });

  const auto decompress_blocks =
      run_sweep("decompress", [&](const codec::StreamOptions& opt) {
        std::atomic<std::int64_t> voxels{0};
        codec::StreamDecompressor stream(
            wedge_codec, opt, [&voxels](core::Tensor&& w) {
              voxels.fetch_add(w.numel(), std::memory_order_relaxed);
            });
        for (std::int64_t i = 0; i < n_wedges; ++i) {
          stream.submit(stored[static_cast<std::size_t>(i) % stored.size()]);
        }
        return stream.finish();
      });

  // Burst absorption: try_submit a 4x-capacity burst against the compress
  // pool with the spill tier enabled.  Drops or an unreplayed spill are
  // hard errors — this row *is* the lossless-backpressure claim.
  const auto spill_root =
      std::filesystem::temp_directory_path() /
      ("bench_stream_spill_" +
       std::to_string(std::chrono::steady_clock::now().time_since_epoch().count()));
  const std::size_t burst_workers = std::min<std::size_t>(4, max_workers);
  const auto run_burst = [&](codec::IntakeMode intake) {
    codec::StreamOptions opt;
    opt.queue_capacity = 16;
    opt.batch_size = batch;
    opt.n_workers = burst_workers;
    opt.intake = intake;
    opt.spill_dir = (spill_root / codec::to_string(intake)).string();
    const long long n_burst = 4 * static_cast<long long>(opt.queue_capacity);
    std::atomic<std::int64_t> bytes{0};
    util::Timer wall;
    codec::StreamCompressor stream(
        wedge_codec, opt, [&bytes](codec::WedgeEnvelope&& cw) {
          bytes.fetch_add(cw.payload_bytes(), std::memory_order_relaxed);
        });
    for (long long i = 0; i < n_burst; ++i) {
      (void)stream.try_submit(wedges[static_cast<std::size_t>(i) % wedges.size()]);
    }
    const codec::StreamStats stats = stream.finish();
    BurstPoint p;
    p.workers = opt.n_workers;
    p.capacity = opt.queue_capacity;
    p.wedges = n_burst;
    p.wall_s = wall.elapsed_s();
    p.wps = p.wall_s > 0
                ? static_cast<double>(stats.wedges_compressed) / p.wall_s
                : 0.0;
    p.spilled = static_cast<long long>(stats.wedges_spilled);
    p.replayed = static_cast<long long>(stats.wedges_replayed);
    p.dropped = static_cast<long long>(stats.wedges_dropped);
    std::printf("  %-8s %12.3f %12.1f %9lld %9lld %8lld\n",
                codec::to_string(intake), p.wall_s, p.wps, p.spilled,
                p.replayed, p.dropped);
    if (stats.wedges_compressed != n_burst || p.dropped != 0 ||
        p.replayed != p.spilled) {
      std::fprintf(stderr,
                   "ERROR: burst not lossless (%lld of %lld compressed, "
                   "%lld dropped, %lld/%lld replayed)\n",
                   static_cast<long long>(stats.wedges_compressed), n_burst,
                   p.dropped, p.replayed, p.spilled);
      std::error_code ec;
      std::filesystem::remove_all(spill_root, ec);  // don't strand temp files
      std::exit(1);
    }
    return p;
  };
  std::printf("\nburst (4x capacity, spill tier on, %zu workers):\n",
              burst_workers);
  std::printf("  %-8s %12s %12s %9s %9s %8s\n", "intake", "wall [s]", "wps",
              "spilled", "replayed", "dropped");
  const BurstPoint burst_single = run_burst(codec::IntakeMode::kSingleQueue);
  const BurstPoint burst_sharded = run_burst(codec::IntakeMode::kSharded);
  std::error_code cleanup_ec;
  std::filesystem::remove_all(spill_root, cleanup_ec);

  // Elastic vs static under a bursty profile: quiet trickle -> flood ->
  // quiet trickle.  The elastic claim is two-sided: burst drain time within
  // noise of the static pool (scale-up is a condvar notify, microseconds)
  // while the quiet phases run strictly fewer live workers.  Loss is the
  // only hard error; the throughput comparison is printed and left to the
  // reader / trend tracking (CI machines are too noisy for a ±10% gate).
  const std::size_t elastic_pool = std::min<std::size_t>(4, max_workers);
  const auto run_elastic = [&](bool elastic) {
    codec::StreamOptions opt;
    opt.queue_capacity = 16;
    opt.batch_size = batch;
    opt.intake = codec::IntakeMode::kSharded;
    if (elastic) {
      opt.elastic = true;
      opt.min_workers = 1;
      opt.max_workers = elastic_pool;
      opt.n_workers = 1;
      opt.scale_interval_s = 0.001;  // fast ticks: the run is ~100 ms
      opt.scale_window = 4;
      opt.scale_cooldown = 2;
    } else {
      opt.n_workers = elastic_pool;
    }
    const long long n_quiet = 16;
    const long long n_burst = 8 * static_cast<long long>(opt.queue_capacity);
    std::atomic<long long> sunk{0};
    codec::StreamCompressor stream(
        wedge_codec, opt, [&sunk](codec::WedgeEnvelope&&) {
          sunk.fetch_add(1, std::memory_order_relaxed);
        });
    double quiet_live_sum = 0.0;
    long long quiet_samples = 0;
    const auto quiet_phase = [&] {
      for (long long i = 0; i < n_quiet; ++i) {
        stream.submit(wedges[static_cast<std::size_t>(i) % wedges.size()]);
        quiet_live_sum += static_cast<double>(stream.live_workers());
        ++quiet_samples;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    };
    quiet_phase();
    // Burst: flood, then spin until the sink has swallowed everything —
    // that drain time is the scale-up-latency-inclusive number under test.
    util::Timer burst_wall;
    for (long long i = 0; i < n_burst; ++i) {
      stream.submit(wedges[static_cast<std::size_t>(i) % wedges.size()]);
    }
    while (sunk.load(std::memory_order_relaxed) < n_quiet + n_burst) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const double burst_s = burst_wall.elapsed_s();
    quiet_phase();
    const codec::StreamStats stats = stream.finish();
    ElasticPoint p;
    p.mode = elastic ? "elastic" : "static";
    p.burst_s = burst_s;
    p.burst_wps =
        burst_s > 0 ? static_cast<double>(n_burst) / burst_s : 0.0;
    p.up = static_cast<long long>(stats.scale_up_events);
    p.down = static_cast<long long>(stats.scale_down_events);
    p.avg_live = stats.avg_live_workers;
    p.quiet_live =
        quiet_samples > 0 ? quiet_live_sum / static_cast<double>(quiet_samples)
                          : 0.0;
    std::printf("  %-8s %12.3f %12.1f %9lld %9lld %9.2f %11.2f\n", p.mode,
                p.burst_s, p.burst_wps, p.up, p.down, p.avg_live,
                p.quiet_live);
    const long long total = 2 * n_quiet + n_burst;
    if (stats.wedges_compressed != total || stats.wedges_dropped != 0) {
      std::fprintf(stderr,
                   "ERROR: %s bursty run lost wedges (%lld of %lld, "
                   "%lld dropped)\n",
                   p.mode, static_cast<long long>(stats.wedges_compressed),
                   total, static_cast<long long>(stats.wedges_dropped));
      std::exit(1);
    }
    return p;
  };
  std::printf("\nelastic vs static (quiet/burst/quiet, pool %zu, sharded "
              "intake):\n",
              elastic_pool);
  std::printf("  %-8s %12s %12s %9s %9s %9s %11s\n", "mode", "burst [s]",
              "burst wps", "scale-up", "scale-dn", "avg live", "quiet live");
  const ElasticPoint el_static = run_elastic(false);
  const ElasticPoint el_elastic = run_elastic(true);
  if (el_static.burst_wps > 0) {
    std::printf("  elastic burst throughput: %.0f%% of static, quiet-phase "
                "live workers %.2f vs %.2f\n",
                100.0 * el_elastic.burst_wps / el_static.burst_wps,
                el_elastic.quiet_live, el_static.quiet_live);
  }

  if (hw < 4) {
    std::printf("\nnote: only %u hardware thread(s) visible — worker scaling "
                "needs >= 4 cores to show the expected >1.5x at 4 workers "
                "(and single-vs-sharded contention differences).\n",
                hw);
  }

  // Machine-readable trailer (single line, greppable with '^{').
  std::printf("\n{\"bench\":\"stream\",\"wedges\":%lld,\"batch\":%lld,"
              "\"hardware_threads\":%u,"
              "\"compress\":{\"single\":%s,\"sharded\":%s},"
              "\"decompress\":{\"single\":%s,\"sharded\":%s},"
              "\"burst\":{\"single\":%s,\"sharded\":%s},"
              "\"elastic\":{\"static\":%s,\"elastic\":%s}}\n",
              static_cast<long long>(n_wedges), static_cast<long long>(batch),
              hw, json_points(compress_blocks[0]).c_str(),
              json_points(compress_blocks[1]).c_str(),
              json_points(decompress_blocks[0]).c_str(),
              json_points(decompress_blocks[1]).c_str(),
              json_burst(burst_single).c_str(),
              json_burst(burst_sharded).c_str(),
              json_elastic(el_static).c_str(),
              json_elastic(el_elastic).c_str());
  return 0;
}
