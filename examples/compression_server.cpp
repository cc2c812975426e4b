/// \file compression_server.cpp
/// \brief Multi-client compression service scenario: N concurrent client
///        streams multiplexed over ONE shared worker pool and ONE set of
///        model weights.
///
/// streaming_daq.cpp is one pipeline = one stream.  The deployment the paper
/// targets is a *service*: every fibre bundle (and every analysis consumer)
/// opens its own session against a shared CompressionService, which gives
/// each of them an independent sequence space with ordered emission, a fair
/// (deficit-round-robin) share of the pool, and a per-session degradation
/// ladder — under sustained overload a session hops to a cheaper registered
/// codec (e.g. bcae-int8 -> zfp) before a single wedge is shed.
///
/// Each simulated client is a thread: open_session -> paced submits ->
/// close_session, with the per-session stats printed as each client
/// finishes.  `--firehose` adds one misbehaving client submitting flat-out
/// with try_submit — run it to watch the ladder hop (and, with a one-rung
/// `--ladder`, shedding) hit ONLY the firehose while the polite clients'
/// rows stay clean.
///
/// Run:  ./compression_server [--clients 4] [--wedges 64] [--rate 200]
///                            [--workers 2] [--batch 8] [--queue 32]
///                            [--session-queue 32]
///                            [--ladder bcae-int8,zfp] [--firehose]
///                            [--spill-dir DIR]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codec/service.hpp"
#include "codec/wedge_codec.hpp"
#include "tpc/dataset.hpp"
#include "util/cli.hpp"

namespace {

/// Comma-separated registry names -> owned codecs + the borrowed-pointer
/// ladder the service wants.  Empty result = a name failed to resolve.
struct Ladder {
  std::vector<std::unique_ptr<nc::codec::WedgeCodec>> owned;
  std::vector<const nc::codec::WedgeCodec*> rungs;
};

Ladder build_ladder(const std::string& spec, nc::bcae::BcaeModel& model) {
  Ladder ladder;
  std::istringstream is(spec);
  std::string name;
  while (std::getline(is, name, ',')) {
    if (name.empty()) continue;
    try {
      ladder.owned.push_back(nc::codec::make_wedge_codec(name, model));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s (registered:", e.what());
      for (const auto& n : nc::codec::registered_codec_names()) {
        std::fprintf(stderr, " %s", n.c_str());
      }
      std::fprintf(stderr, ")\n");
      return {};
    }
    ladder.rungs.push_back(ladder.owned.back().get());
  }
  return ladder;
}

/// Prints one session's row; false when its counts do not add up (every
/// submit ends compressed, shed or failed).
bool print_session_row(const char* tag, nc::codec::SessionId id,
                       const nc::codec::SessionStats& stats) {
  std::printf("  %-8s #%llu: %5lld submitted, %5lld compressed, %4lld shed, "
              "%3lld failed | %lld hop(s) down, %lld up, final %s | "
              "%lld payload bytes, staging hwm %lld\n",
              tag, static_cast<unsigned long long>(id),
              static_cast<long long>(stats.submitted),
              static_cast<long long>(stats.compressed),
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.failed),
              static_cast<long long>(stats.degradations),
              static_cast<long long>(stats.recoveries), stats.codec.c_str(),
              static_cast<long long>(stats.payload_bytes),
              static_cast<long long>(stats.queue_depth_hwm));
  if (stats.submitted == stats.compressed + stats.shed + stats.failed) {
    return true;
  }
  std::fprintf(stderr, "ERROR: session #%llu: %lld submitted but %lld "
               "compressed + shed + failed\n",
               static_cast<unsigned long long>(id),
               static_cast<long long>(stats.submitted),
               static_cast<long long>(stats.compressed + stats.shed +
                                      stats.failed));
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nc;
  util::ArgParser args("compression_server",
                       "multi-client session-multiplexed compression service");
  args.add_option("clients", "4", "concurrent polite client sessions");
  args.add_option("wedges", "64", "wedges each polite client submits");
  args.add_option("rate", "200", "per-client submit rate [wedges/s]");
  args.add_option("workers", "2", "shared pool worker threads");
  args.add_option("batch", "8", "shared pool batch size");
  args.add_option("queue", "32", "shared pool intake capacity");
  args.add_option("session-queue", "32", "per-session staging capacity");
  args.add_option("ladder", "bcae-int8,zfp",
                  "comma-separated codec degradation ladder, preferred "
                  "first (any registered codec)");
  args.add_flag("firehose",
                "add one flat-out try_submit client to overload the pool");
  args.add_option("spill-dir", "",
                  "shared pool spill tier directory (empty = off)");
  if (!args.parse(argc, argv)) return 1;

  const std::int64_t n_clients = args.get_int("clients");
  const std::int64_t n_wedges = args.get_int("wedges");
  const std::int64_t workers_flag = args.get_int("workers");
  const std::int64_t batch_flag = args.get_int("batch");
  const std::int64_t queue_flag = args.get_int("queue");
  const std::int64_t session_queue_flag = args.get_int("session-queue");
  if (n_clients <= 0 || n_wedges <= 0) {
    std::fprintf(stderr, "error: --clients and --wedges must be positive\n");
    return 1;
  }
  if (workers_flag <= 0 || batch_flag <= 0 || queue_flag <= 0 ||
      session_queue_flag <= 0) {
    std::fprintf(stderr, "error: --workers, --batch, --queue and "
                         "--session-queue must be positive\n");
    return 1;
  }

  // Stage wedges and the (shared!) model: every session's BCAE rungs run on
  // one set of weights — the whole point of multiplexing one service.
  tpc::DatasetConfig cfg;
  cfg.n_events = 4;
  const auto dataset = tpc::WedgeDataset::generate(cfg);
  std::vector<core::Tensor> wedges;
  for (const auto& w : dataset.train()) {
    wedges.push_back(tpc::clip_horizontal(w, dataset.valid_horiz()));
  }
  auto model = bcae::make_bcae_2d(bcae::Bcae2dConfig{}, 7);
  Ladder ladder = build_ladder(args.get("ladder"), model);
  if (ladder.rungs.empty()) {
    std::fprintf(stderr, "error: --ladder must name at least one codec\n");
    return 1;
  }
  std::printf("service: %lld worker(s), intake %lld, ladder",
              static_cast<long long>(workers_flag),
              static_cast<long long>(queue_flag));
  for (const auto* rung : ladder.rungs) {
    std::printf(" %s", rung->name().c_str());
  }
  std::printf("%s\n", args.get_bool("firehose") ? " (+firehose)" : "");

  codec::ServiceOptions opt;
  opt.pipeline.n_workers = static_cast<std::size_t>(workers_flag);
  opt.pipeline.batch_size = static_cast<std::size_t>(batch_flag);
  opt.pipeline.queue_capacity = static_cast<std::size_t>(queue_flag);
  opt.pipeline.spill_dir = args.get("spill-dir");
  codec::CompressionService service(opt);

  std::mutex print_mutex;
  std::atomic<std::int64_t> stored_bytes{0};
  std::atomic<bool> rows_add_up{true};

  // Polite clients: paced blocking submits, one session each.
  const double rate = args.get_double("rate");
  const auto interval =
      std::chrono::duration<double>(rate > 0 ? 1.0 / rate : 0.0);
  std::vector<std::thread> clients;
  for (std::int64_t c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      codec::SessionOptions sopt;
      sopt.ladder = ladder.rungs;
      sopt.queue_capacity = static_cast<std::size_t>(session_queue_flag);
      sopt.sink = [&](std::uint64_t, codec::WedgeEnvelope&& env) {
        stored_bytes.fetch_add(env.payload_bytes(),
                               std::memory_order_relaxed);
      };
      const auto id = service.open_session(std::move(sopt));
      std::size_t next = static_cast<std::size_t>(c) % wedges.size();
      for (std::int64_t i = 0; i < n_wedges; ++i) {
        (void)service.submit(id, wedges[next]);
        next = (next + 1) % wedges.size();
        std::this_thread::sleep_for(interval);
      }
      const auto stats = service.close_session(id);
      std::lock_guard<std::mutex> lock(print_mutex);
      if (!print_session_row("client", id, stats)) rows_add_up = false;
    });
  }

  // The misbehaving tenant: flat-out try_submit until the polite clients
  // are done — its ladder hops (and any shedding) stay its own problem.
  std::atomic<bool> stop_firehose{false};
  std::thread firehose;
  if (args.get_bool("firehose")) {
    firehose = std::thread([&] {
      codec::SessionOptions sopt;
      sopt.ladder = ladder.rungs;
      sopt.queue_capacity = static_cast<std::size_t>(session_queue_flag);
      const auto id = service.open_session(std::move(sopt));
      std::size_t next = 0;
      while (!stop_firehose.load(std::memory_order_relaxed)) {
        (void)service.try_submit(id, wedges[next]);
        next = (next + 1) % wedges.size();
      }
      const auto stats = service.close_session(id);
      std::lock_guard<std::mutex> lock(print_mutex);
      if (!print_session_row("firehose", id, stats)) rows_add_up = false;
    });
  }

  for (auto& t : clients) t.join();
  stop_firehose.store(true);
  if (firehose.joinable()) firehose.join();

  const auto totals = service.finish();
  std::printf("service totals: %lld session(s), %lld wedges scheduled, "
              "%lld shed, %lld degradation(s), %lld recoveries\n",
              static_cast<long long>(totals.sessions_opened),
              static_cast<long long>(totals.wedges_scheduled),
              static_cast<long long>(totals.wedges_shed),
              static_cast<long long>(totals.degradations),
              static_cast<long long>(totals.recoveries));
  std::printf("shared pool:    %lld compressed at %.1f wedges/s, "
              "%lld spilled, %lld bytes stored\n",
              static_cast<long long>(totals.pipeline.wedges_compressed),
              totals.pipeline.throughput_wps(),
              static_cast<long long>(totals.pipeline.wedges_spilled),
              static_cast<long long>(stored_bytes.load()));
  // The service identity: every scheduled wedge went through the shared
  // pool's transform, was lost there (failed) or was refused by its spill
  // tier (dropped) — nothing vanishes.
  const std::int64_t accounted = totals.pipeline.wedges_compressed +
                                 totals.pipeline.wedges_failed +
                                 totals.pipeline.wedges_dropped;
  if (accounted != totals.wedges_scheduled) {
    std::fprintf(stderr, "ERROR: %lld scheduled but %lld accounted\n",
                 static_cast<long long>(totals.wedges_scheduled),
                 static_cast<long long>(accounted));
    return 1;
  }
  return rows_add_up ? 0 : 1;
}
