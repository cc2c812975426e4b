/// \file workloads.cpp
/// \brief The three benchmark workloads (daq, service, analysis) and the
///        traced run's per-layer breakdown.  See README.md for why each
///        workload exists and what each metric means.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bcae/model.hpp"
#include "codec/bcae_codec.hpp"
#include "codec/service.hpp"
#include "codec/stream.hpp"
#include "codec/wedge_codec.hpp"
#include "core/profiler.hpp"
#include "harness.hpp"
#include "metrics/metrics.hpp"
#include "tpc/dataset.hpp"

namespace perfbench {
namespace {

using nc::bcae::BcaeModel;
using nc::codec::CompressionService;
using nc::codec::StreamCompressor;
using nc::codec::StreamDecompressor;
using nc::codec::StreamOptions;
using nc::codec::StreamStats;
using nc::codec::WedgeCodec;
using nc::codec::WedgeEnvelope;
using nc::core::Tensor;

constexpr std::size_t kWorkers = 4;   // pipeline workers: nproc of the reference host
constexpr std::size_t kSessions = 64;
constexpr std::size_t kBatch = 8;     // StreamOptions default; also the replay batch
constexpr std::uint64_t kModelSeed = 7;  // the model both examples use
constexpr int kSetups = 15;           // set-ups per run; setup_s is their median
// Distinct wedges cycled by the encode workloads.  More than the wedges in
// flight (intake 64 + 4 workers x batch 8), so the tensor storage seen in
// a codec call names one offered wedge; every session of `service` cycles
// its own two.
constexpr std::size_t kEncodeDistinct = 2 * kSessions;
// Distinct stored envelopes of `analysis`: each reference costs a direct
// decode (~0.3 s of CPU), so the read side cycles fewer.
constexpr std::size_t kDecodeDistinct = 16;
// Warm-in before the measured window: long enough for the host to settle
// under full load, and every slot of the pipeline (the default intake queue
// plus a batch per worker) turned over once, so the latencies in the window
// are those of the full steady-state queue.
constexpr double kWarmS = 2.0;
const auto kWarmWedges =
    static_cast<std::int64_t>(StreamOptions{}.queue_capacity + kWorkers * kBatch);
constexpr double kWarmLimitS = 30.0;        // start the window anyway after this

/// Seconds each phase of a run measures.  A traced run spends half of its
/// time on the untraced reference phase and half on the traced one.
double phase_seconds(const RunConfig& cfg) {
  return cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

// --- inputs -----------------------------------------------------------------

struct Inputs {
  nc::tpc::WedgeShape shape;
  std::vector<Tensor> wedges;  ///< distinct unpadded (radial, azim, horiz) wedges
  double occupancy = 0.0;      ///< nonzero voxel fraction over `wedges`
};

/// `n_distinct` wedges taken evenly from at least kMinEvents simulated
/// events, so event-to-event variation (pile-up, occupancy) averages out of
/// the quality metrics.
Inputs make_inputs(std::uint64_t seed, std::size_t n_distinct) {
  constexpr std::size_t kMinEvents = 4;
  nc::tpc::DatasetConfig cfg;  // bench-scale geometry: (16, 48, 62) wedges
  cfg.seed = seed;
  cfg.n_events = 1;
  const auto probe = nc::tpc::WedgeDataset::generate(cfg);
  const std::size_t per_event = probe.train().size() + probe.test().size();
  cfg.n_events = static_cast<std::int64_t>(
      std::max(kMinEvents, (n_distinct + per_event - 1) / per_event));
  const auto ds = nc::tpc::WedgeDataset::generate(cfg);
  std::vector<Tensor> pool = ds.train();
  pool.insert(pool.end(), ds.test().begin(), ds.test().end());

  Inputs in;
  in.shape = ds.wedge_shape();
  std::int64_t nonzero = 0;
  for (std::size_t i = 0; i < n_distinct; ++i) {
    in.wedges.push_back(
        nc::tpc::clip_horizontal(pool[i * pool.size() / n_distinct], ds.valid_horiz()));
    const Tensor& c = in.wedges.back();
    nonzero += std::count_if(c.data(), c.data() + c.numel(), [](float v) { return v > 0.f; });
  }
  in.occupancy = static_cast<double>(nonzero) /
                 static_cast<double>(in.shape.voxels() *
                                     static_cast<std::int64_t>(n_distinct));
  std::printf("inputs: %zu distinct wedges of %s, occupancy %.4f, tpc seed %llu\n",
              n_distinct, in.shape.to_string().c_str(), in.occupancy,
              static_cast<unsigned long long>(seed));
  return in;
}

std::string serialized(const WedgeEnvelope& env) {
  std::ostringstream os;
  env.serialize(os);
  return std::move(os).str();
}

/// Direct single-caller compress of every input, in batches of kBatch.
std::vector<WedgeEnvelope> compress_all(const WedgeCodec& codec, const Inputs& in) {
  std::vector<WedgeEnvelope> out;
  for (std::size_t i = 0; i < in.wedges.size(); i += kBatch) {
    const std::size_t end = std::min(in.wedges.size(), i + kBatch);
    auto part = codec.compress_batch({in.wedges.begin() + static_cast<std::ptrdiff_t>(i),
                                      in.wedges.begin() + static_cast<std::ptrdiff_t>(end)});
    for (auto& e : part) out.push_back(std::move(e));
  }
  return out;
}

bool same_envelope(const WedgeEnvelope& a, const WedgeEnvelope& b) {
  return a.codec_id == b.codec_id && a.wedge_shape == b.wedge_shape &&
         a.payload == b.payload;
}

bool same_tensor(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Mean |recon - original| over kBatch inputs spread evenly over the set,
/// decoding their (verified) reference envelopes with `codec`.
double sample_mae(const WedgeCodec& codec, const std::vector<WedgeEnvelope>& envs,
                  const Inputs& in) {
  const std::size_t stride = envs.size() / kBatch;
  std::vector<WedgeEnvelope> sample;
  for (std::size_t i = 0; i < kBatch; ++i) sample.push_back(envs[i * stride]);
  const auto recon = codec.decompress_batch(sample);
  nc::metrics::MetricsAccumulator acc;
  for (std::size_t i = 0; i < recon.size(); ++i) {
    acc.add(nc::metrics::evaluate_reconstruction(recon[i], in.wedges[i * stride]),
            recon[i].numel());
  }
  return acc.result().mae;
}

std::unique_ptr<BcaeModel> make_model() {
  return std::make_unique<BcaeModel>(
      nc::bcae::make_bcae_2d(nc::bcae::Bcae2dConfig{}, kModelSeed));
}

nc::core::Mode codec_mode(const WedgeCodec& codec) {
  return dynamic_cast<const nc::codec::BcaeWedgeCodec&>(codec).bcae().mode();
}

StreamOptions pool_options() {
  StreamOptions options;  // batch 8, queue 64, adaptive batch, sharded intake
  options.n_workers = kWorkers;
  return options;
}

// --- measured window ----------------------------------------------------------

/// The measured window: it opens once warm-in is done (kWarmS and
/// kWarmWedges delivered) and closes `seconds` later, as seen by the
/// generator.  Rates and percentiles are taken over the whole window: on a
/// shared host the speed drifts over tens of seconds, and the mean over the
/// longest window varies less from run to run than a median of shorter
/// sub-windows does.
struct Window {
  std::int64_t begin = 0;
  std::int64_t t0 = 0, t1 = 0;
  Usage u0, u1;  ///< process counters at t0 and t1

  void start() { begin = now_ns(); }
  /// False once the window has closed.
  bool advance(std::int64_t delivered, double seconds) {
    const std::int64_t now = now_ns();
    if (t0 == 0) {
      const double warm = seconds_between(begin, now);
      if ((warm >= kWarmS && delivered >= kWarmWedges) || warm >= kWarmLimitS) open(now);
      return true;
    }
    if (seconds_between(t0, now) < seconds) return true;
    end(now);
    return false;
  }
  /// End the window now if the generator stopped early (ledger full).
  void close() {
    if (t0 == 0) open(begin);
    if (t1 == 0) end(now_ns());
  }
  double wall_s() const { return seconds_between(t0, t1); }

 private:
  void open(std::int64_t t) {
    t0 = t;
    u0 = Usage::now();
  }
  void end(std::int64_t t) {
    t1 = t;
    u1 = Usage::now();
  }
};

/// Per-wedge facts of the wedges whose sink entry falls in the window.
struct WindowScan {
  std::int64_t n = 0;
  std::int64_t bytes = 0;
  std::vector<double> latency_ms, queue_ms, emit_ms, io_us;
};

WindowScan scan_window(const Ledger& ledger, std::int64_t offered, std::int64_t t0,
                       std::int64_t t1) {
  WindowScan s;
  for (std::int64_t wid = 0; wid < offered; ++wid) {
    const WedgeRec& r = ledger[wid];
    if (r.sink_start < t0 || r.sink_start >= t1) continue;
    ++s.n;
    s.bytes += r.bytes;
    s.latency_ms.push_back(static_cast<double>(r.sink_start - r.submit_start) / 1e6);
    if (r.call_start != 0) {
      s.queue_ms.push_back(
          static_cast<double>(std::max<std::int64_t>(0, r.call_start - r.submit_end)) / 1e6);
      s.emit_ms.push_back(static_cast<double>(r.sink_start - r.call_end) / 1e6);
    }
    if (r.io_end != 0) s.io_us.push_back(static_cast<double>(r.io_end - r.io_start) / 1e3);
  }
  return s;
}

/// Peak OS thread count, sampled every 10 ms while alive (itself excluded).
class ThreadSampler {
 public:
  ThreadSampler() : thread_([this] { loop(); }) {}
  ~ThreadSampler() { stop(); }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  int stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return peak_ - 1;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      peak_ = std::max(peak_, os_threads());
      cv_.wait_for(lock, std::chrono::milliseconds(10), [this] { return stopping_; });
    }
  }
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  int peak_ = 0;
  std::thread thread_;
};

// --- outcome of one measured phase -------------------------------------------

/// Counts every offered wedge ends in (conservation) plus the window facts.
struct Phase {
  explicit Phase(double seconds)
      : ledger(static_cast<std::size_t>(50000.0 * (seconds + 10.0))) {}

  Ledger ledger;
  Window window;
  std::int64_t offered = 0;
  std::atomic<std::int64_t> delivered{0};
  std::atomic<std::int64_t> mismatched{0};
  std::atomic<std::int64_t> misordered{0};
  std::int64_t failed = 0, dropped = 0, shed = 0, refused = 0;
  WindowScan scan;
  std::vector<std::string> violations;

  /// Close the books after the pipeline finished: scan the window, check
  /// conservation and the output checks.
  void settle() {
    scan = scan_window(ledger, offered, window.t0, window.t1);
    const std::int64_t got = delivered.load();
    if (offered != got + failed + dropped + shed + refused) {
      violations.push_back(
          "conservation: offered " + std::to_string(offered) + " != delivered " +
          std::to_string(got) + " + failed " + std::to_string(failed) +
          " + dropped " + std::to_string(dropped) + " + shed " +
          std::to_string(shed) + " + refused " + std::to_string(refused));
    }
    if (mismatched.load() != 0) {
      violations.push_back(std::to_string(mismatched.load()) +
                           " output(s) differ from the direct codec call");
    }
    if (misordered.load() != 0) {
      violations.push_back(std::to_string(misordered.load()) +
                           " output(s) delivered out of order");
    }
  }
  std::int64_t verified() const { return delivered.load() - mismatched.load(); }
  double per_wedge(double total) const {
    return scan.n ? total / static_cast<double>(scan.n) : 0.0;
  }
  double wps() const { return static_cast<double>(scan.n) / window.wall_s(); }
  double cpu_ms_per_wedge() const { return per_wedge((window.u1.cpu_s - window.u0.cpu_s) * 1e3); }
  double p50_ms() const { return quantile(scan.latency_ms, 0.5); }
  double p99_ms() const { return quantile(scan.latency_ms, 0.99); }
  double ctx_per_wedge() const {
    return per_wedge(static_cast<double>(window.u1.ctx_switches - window.u0.ctx_switches));
  }
  void print(const char* label) const {
    std::printf("%s: offered %lld, delivered %lld (%lld in a %.2f s window), "
                "failed %lld, dropped %lld, shed %lld, refused %lld\n",
                label, static_cast<long long>(offered),
                static_cast<long long>(delivered.load()), static_cast<long long>(scan.n),
                window.wall_s(), static_cast<long long>(failed),
                static_cast<long long>(dropped), static_cast<long long>(shed),
                static_cast<long long>(refused));
    std::printf("%s: %.2f wedges/s, %.2f ms CPU/wedge, p50 %.2f ms, p99 %.2f ms over %zu "
                "samples%s\n",
                label, wps(), cpu_ms_per_wedge(), p50_ms(), p99_ms(), scan.latency_ms.size(),
                scan.latency_ms.size() < 1000 ? " (fewer than 10 beyond p99)" : "");
  }
};

// --- single-caller replay: the model/adapter split -----------------------------

/// Replays of one batch, alternating the whole codec call with the model
/// forward alone.  The adapter's own work is small next to the run-to-run
/// noise of either, so its cost is taken between the fastest call and the
/// fastest forward; the conv share is split inside each forward.
struct Replay {
  double call_median_s = 0.0;
  double call_min_s = 0.0;
  double forward_min_s = 0.0;
  double nonconv_median_s = 0.0;  ///< forward minus its profiled conv time
};

double profiled_conv_s() {
  double total = 0.0;
  for (const auto& [label, e] : nc::core::Profiler::instance().entries()) total += e.total_s;
  return total;
}

template <typename CallFn, typename ForwardFn>
Replay replay(int reps, Tracer& tracer, CallFn&& call, ForwardFn&& forward) {
  auto& profiler = nc::core::Profiler::instance();
  std::vector<double> calls, forwards, nonconv;
  for (int r = 0; r < reps; ++r) {
    std::int64_t t = now_ns();
    call();
    const std::int64_t t_call = now_ns();
    tracer.add_span({"replay.codec_call", t, t_call, 0, static_cast<int>(kBatch)});
    calls.push_back(seconds_between(t, t_call));

    profiler.clear();
    profiler.set_enabled(true);
    t = now_ns();
    forward();
    const std::int64_t t_fwd = now_ns();
    profiler.set_enabled(false);
    tracer.add_span({"replay.model_forward", t, t_fwd, 0, static_cast<int>(kBatch)});
    forwards.push_back(seconds_between(t, t_fwd));
    nonconv.push_back(forwards.back() - profiled_conv_s());
  }
  profiler.clear();
  return {median(calls), *std::min_element(calls.begin(), calls.end()),
          *std::min_element(forwards.begin(), forwards.end()), median(nonconv)};
}

Replay replay_encode(const WedgeCodec& codec, BcaeModel& model, const Inputs& in,
                     Tracer& tracer) {
  const std::vector<Tensor> batch(in.wedges.begin(),
                                  in.wedges.begin() + static_cast<std::ptrdiff_t>(kBatch));
  const std::int64_t ph = in.shape.padded_horiz();
  const std::int64_t stride = in.shape.radial * in.shape.azim * ph;
  Tensor padded({static_cast<std::int64_t>(kBatch), in.shape.radial, in.shape.azim, ph});
  for (std::size_t i = 0; i < kBatch; ++i) {
    const Tensor p = nc::tpc::pad_wedge(batch[i], ph);
    std::copy(p.data(), p.data() + stride,
              padded.data() + static_cast<std::int64_t>(i) * stride);
  }
  const auto mode = codec_mode(codec);
  return replay(
      9, tracer, [&] { (void)codec.compress_batch(batch); },
      [&] { (void)model.encode(padded, mode); });
}

Replay replay_decode(const WedgeCodec& codec, BcaeModel& model,
                     const std::vector<WedgeEnvelope>& envs, Tracer& tracer) {
  const std::vector<WedgeEnvelope> batch(envs.begin(),
                                         envs.begin() + static_cast<std::ptrdiff_t>(kBatch));
  // The decoder's input, as the adapter builds it: the widened binary16 code.
  Tensor code;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::istringstream is(std::string(batch[i].payload.begin(), batch[i].payload.end()));
    const auto cw = nc::codec::CompressedWedge::deserialize(is);
    const std::int64_t numel = nc::core::shape_numel(cw.code_shape);
    if (i == 0) {
      nc::core::Shape shape = cw.code_shape;
      shape.insert(shape.begin(), static_cast<std::int64_t>(batch.size()));
      code = Tensor(shape);
    }
    nc::util::half_to_float_n(cw.code.data(),
                              code.data() + static_cast<std::int64_t>(i) * numel, numel);
  }
  const auto mode = codec_mode(codec);
  return replay(
      5, tracer, [&] { (void)codec.decompress_batch(batch); },
      [&] {
        const auto heads = model.decode(code, mode);
        (void)BcaeModel::reconstruct(heads, nc::bcae::kDefaultThreshold);
      });
}

// --- metric assembly -------------------------------------------------------------

struct EndToEnd {
  double setup_s = 0.0;
  double mae = 0.0;
  std::int64_t voxels = 0;  ///< per wedge, unpadded
};

std::vector<Metric> end_to_end(const Phase& p, const EndToEnd& e) {
  const double ratio =
      p.scan.bytes ? static_cast<double>(p.scan.n * e.voxels * 2) /
                         static_cast<double>(p.scan.bytes)
                   : 0.0;
  return {
      {"wps", p.wps(), "1/s"},
      {"p50_ms", p.p50_ms(), "ms"},
      {"p99_ms", p.p99_ms(), "ms"},
      {"cpu_ms_per_wedge", p.cpu_ms_per_wedge(), "ms"},
      {"ratio", ratio, "x"},
      {"mae", e.mae, "log-ADC"},
      {"ok_frac",
       p.offered ? static_cast<double>(p.verified()) / static_cast<double>(p.offered) : 0.0,
       "frac"},
      {"rss_peak_mb", rss_peak_mb(), "MB"},
      {"setup_s", e.setup_s, "s"},
  };
}

/// Every per-layer metric, zero where the workload's path skips the layer.
struct Layers {
  // The stream layer (StreamPipeline + intake) or the service layer in
  // front of it, whichever the workload submits to.
  double queue_p50 = 0, queue_p99 = 0, emit_p50 = 0, emit_p99 = 0;
  double wedges_per_call = 0, busy_frac = 0;
  // StreamStats of the pipeline (the service's shared one on `service`).
  double pipe_wedges_per_batch = 0, stolen_per_batch = 0;
  double depth_hwm = 0, pipe_failed = 0, pipe_dropped = 0;
  // Service only.
  double staging_hwm = 0, degradations = 0, shed = 0, service_failed = 0;
  // codec / bcae / core / parallel.
  double call_ms = 0, self_ms = 0, serialize_us = 0, parse_us = 0, bytes = 0;
  double direct_wps = 0, forward_ms = 0, nonconv_ms = 0;
  double conv_ms = 0, conv_gflops = 0, top_conv_share = 0;
  double threads_peak = 0, ctx_per_wedge = 0;
  double overhead_frac = 0;
};

std::vector<Metric> per_layer(const Layers& l, bool service) {
  const auto front = [&](bool is_service, double v) { return is_service == service ? v : 0.0; };
  return {
      {"pipeline.queue_wait_p50_ms", front(false, l.queue_p50), "ms"},
      {"pipeline.queue_wait_p99_ms", front(false, l.queue_p99), "ms"},
      {"pipeline.emit_wait_p50_ms", front(false, l.emit_p50), "ms"},
      {"pipeline.emit_wait_p99_ms", front(false, l.emit_p99), "ms"},
      {"pipeline.wedges_per_call", l.pipe_wedges_per_batch, "count"},
      {"pipeline.busy_frac", front(false, l.busy_frac), "frac"},
      {"pipeline.stolen_per_call", l.stolen_per_batch, "frac"},
      {"pipeline.queue_depth_hwm", l.depth_hwm, "count"},
      {"pipeline.failed", l.pipe_failed, "count"},
      {"pipeline.dropped", l.pipe_dropped, "count"},
      {"service.queue_wait_p50_ms", front(true, l.queue_p50), "ms"},
      {"service.queue_wait_p99_ms", front(true, l.queue_p99), "ms"},
      {"service.emit_wait_p50_ms", front(true, l.emit_p50), "ms"},
      {"service.emit_wait_p99_ms", front(true, l.emit_p99), "ms"},
      {"service.wedges_per_call", front(true, l.wedges_per_call), "count"},
      {"service.busy_frac", front(true, l.busy_frac), "frac"},
      {"service.staging_hwm", l.staging_hwm, "count"},
      {"service.degradations", l.degradations, "count"},
      {"service.shed", l.shed, "count"},
      {"service.failed", l.service_failed, "count"},
      {"codec.call_ms_per_wedge", l.call_ms, "ms"},
      {"codec.self_ms_per_wedge", l.self_ms, "ms"},
      {"codec.serialize_us_per_wedge", l.serialize_us, "us"},
      {"codec.parse_us_per_wedge", l.parse_us, "us"},
      {"codec.bytes_per_wedge", l.bytes, "B"},
      {"codec.direct_wps", l.direct_wps, "1/s"},
      {"bcae.forward_ms_per_wedge", l.forward_ms, "ms"},
      {"bcae.nonconv_ms_per_wedge", l.nonconv_ms, "ms"},
      {"core.conv_ms_per_wedge", l.conv_ms, "ms"},
      {"core.conv_gflops", l.conv_gflops, "GFLOP/s"},
      {"core.top_conv_share", l.top_conv_share, "frac"},
      {"parallel.threads_peak", l.threads_peak, "count"},
      {"parallel.ctx_switches_per_wedge", l.ctx_per_wedge, "count"},
      {"trace.overhead_frac", l.overhead_frac, "frac"},
  };
}

/// Traced-phase bookkeeping shared by the workloads: tracer, profiler
/// window and thread sampler.
struct TraceScope {
  explicit TraceScope(Ledger& ledger) : tracer(ledger) {
    nc::core::Profiler::instance().clear();
    nc::core::Profiler::instance().set_enabled(true);
  }
  /// Call once the pipeline has drained.
  void end() {
    nc::core::Profiler::instance().set_enabled(false);
    conv_profile = nc::core::Profiler::instance().entries();
    threads_peak = sampler.stop();
  }
  Tracer tracer;
  ThreadSampler sampler;
  int threads_peak = 0;
  std::vector<std::pair<std::string, nc::core::ProfileEntry>> conv_profile;
};

/// Layer metrics every workload derives the same way from a traced phase.
void fill_common_layers(Layers& l, const Phase& traced, const Phase& untraced,
                        const TraceScope& scope, const Replay& r) {
  const std::int64_t t0 = traced.window.t0, t1 = traced.window.t1;
  l.queue_p50 = quantile(traced.scan.queue_ms, 0.5);
  l.queue_p99 = quantile(traced.scan.queue_ms, 0.99);
  l.emit_p50 = quantile(traced.scan.emit_ms, 0.5);
  l.emit_p99 = quantile(traced.scan.emit_ms, 0.99);

  std::int64_t calls_in = 0, wedges_in = 0, busy_ns = 0, dur_ns = 0;
  std::int64_t wedges_all = 0;
  for (const auto& c : scope.tracer.calls()) {
    wedges_all += c.wedges;
    busy_ns += std::max<std::int64_t>(0, std::min(c.end, t1) - std::max(c.start, t0));
    if (c.end < t0 || c.end >= t1) continue;
    ++calls_in;
    wedges_in += c.wedges;
    dur_ns += c.end - c.start;
  }
  l.wedges_per_call = calls_in ? static_cast<double>(wedges_in) / static_cast<double>(calls_in) : 0;
  l.busy_frac = static_cast<double>(busy_ns) /
                (static_cast<double>(kWorkers) * static_cast<double>(t1 - t0));
  l.call_ms = wedges_in ? static_cast<double>(dur_ns) / 1e6 / static_cast<double>(wedges_in) : 0;

  l.bytes = traced.scan.n ? static_cast<double>(traced.scan.bytes) /
                                static_cast<double>(traced.scan.n)
                          : 0;

  const double b = static_cast<double>(kBatch);
  l.self_ms = (r.call_min_s - r.forward_min_s) * 1e3 / b;
  l.direct_wps = b / r.call_median_s;
  l.forward_ms = r.forward_min_s * 1e3 / b;
  l.nonconv_ms = r.nonconv_median_s * 1e3 / b;

  double conv_s = 0.0, flops = 0.0, top = 0.0;
  for (const auto& [label, e] : scope.conv_profile) {
    conv_s += e.total_s;
    flops += e.flops;
    top = std::max(top, e.total_s);
  }
  l.conv_ms = wedges_all ? conv_s * 1e3 / static_cast<double>(wedges_all) : 0;
  l.conv_gflops = conv_s > 0 ? flops / conv_s / 1e9 : 0;
  l.top_conv_share = conv_s > 0 ? top / conv_s : 0;

  l.ctx_per_wedge = untraced.ctx_per_wedge();
  l.threads_peak = scope.threads_peak;
  l.overhead_frac = 1.0 - traced.wps() / untraced.wps();
}

double io_mean_us(const Phase& p) {
  if (p.scan.io_us.empty()) return 0.0;
  double sum = 0.0;
  for (double v : p.scan.io_us) sum += v;
  return sum / static_cast<double>(p.scan.io_us.size());
}

void fill_stream_stats(Layers& l, const StreamStats& s) {
  std::int64_t batches = 0;
  for (const auto& w : s.per_worker) batches += w.batches;
  l.pipe_wedges_per_batch =
      batches ? static_cast<double>(s.wedges_compressed) / static_cast<double>(batches) : 0;
  l.stolen_per_batch =
      batches ? static_cast<double>(s.batches_stolen) / static_cast<double>(batches) : 0;
  l.depth_hwm = static_cast<double>(s.queue_depth_hwm);
  l.pipe_failed = static_cast<double>(s.wedges_failed);
  l.pipe_dropped = static_cast<double>(s.wedges_dropped);
}

Result finish_result(const std::vector<const Phase*>& phases, std::vector<Metric> metrics) {
  Result res;
  for (const Phase* p : phases) {
    res.attempted += p->offered;
    res.failed += p->offered - p->verified();
    for (const auto& v : p->violations) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", v.c_str());
      res.correct = false;
    }
  }
  res.metrics = std::move(metrics);
  return res;
}

template <typename SetupFn>
double timed_setups(SetupFn&& setup_once) {
  std::vector<double> times;
  for (int k = 0; k < kSetups; ++k) {
    const std::int64_t t = now_ns();
    setup_once();
    times.push_back(seconds_between(t, now_ns()));
  }
  std::printf("setup: median %.4f s over %d set-ups (min %.4f, max %.4f)\n", median(times),
              kSetups, *std::min_element(times.begin(), times.end()),
              *std::max_element(times.begin(), times.end()));
  return median(times);
}

// =============================================================================
// daq: StreamCompressor, bcae-fp16, ordered; one blocking client, saturated.
// =============================================================================

struct DaqSink {
  Phase& phase;
  const std::vector<std::string>& refs;  ///< serialized reference per distinct wedge
  bool traced;
  std::uint64_t next_seq = 0;  ///< the ordered sink is never called concurrently

  void operator()(std::uint64_t seq, WedgeEnvelope&& env) {
    WedgeRec& r = phase.ledger[static_cast<std::int64_t>(seq)];
    r.sink_start = now_ns();
    r.sink_tid = thread_index();
    if (traced) r.io_start = now_ns();
    const std::string bytes = serialized(env);  // what the storage writer stores
    if (traced) r.io_end = now_ns();
    r.bytes = static_cast<std::int64_t>(bytes.size());
    if (seq < next_seq) phase.misordered.fetch_add(1);
    next_seq = seq + 1;
    if (bytes != refs[seq % refs.size()]) phase.mismatched.fetch_add(1);
    r.sink_end = now_ns();
    phase.delivered.fetch_add(1, std::memory_order_release);
  }
};

void drive_daq(StreamCompressor& stream, Phase& p, const Inputs& in, double seconds,
               Tracer* tracer) {
  const std::int64_t cap = static_cast<std::int64_t>(p.ledger.capacity());
  std::int64_t i = 0;
  p.window.start();
  while (i < cap && p.window.advance(p.delivered.load(std::memory_order_acquire), seconds)) {
    const Tensor& w = in.wedges[static_cast<std::size_t>(i) % in.wedges.size()];
    if (tracer) tracer->bind(w.data(), i);
    WedgeRec& r = p.ledger[i];
    r.submit_start = now_ns();
    stream.submit(w);
    r.submit_end = now_ns();
    ++i;
  }
  p.window.close();
  p.offered = i;
  const StreamStats stats = stream.finish();
  p.failed = stats.wedges_failed;
  p.dropped = stats.wedges_dropped;
  p.settle();
}

Result run_daq(const RunConfig& cfg) {
  const Inputs in = make_inputs(cfg.seed, kEncodeDistinct);
  StreamOptions options = pool_options();
  options.ordered = true;

  std::vector<std::string> refs;
  Phase main_phase(phase_seconds(cfg));
  DaqSink sink{main_phase, refs, false};
  std::unique_ptr<StreamCompressor> stream;
  std::unique_ptr<WedgeCodec> codec;
  std::unique_ptr<BcaeModel> model;
  EndToEnd e;
  e.voxels = in.shape.voxels();
  e.setup_s = timed_setups([&] {
    if (stream) stream->finish();
    stream.reset();
    codec.reset();
    model = make_model();
    codec = nc::codec::make_wedge_codec("bcae-fp16", *model);
    (void)codec->compress_batch({in.wedges.front()});  // fills the lazy fp16 weights
    stream = std::make_unique<StreamCompressor>(
        *codec, options, [&sink](std::uint64_t seq, WedgeEnvelope&& env) {
          sink(seq, std::move(env));
        });
  });

  const auto ref_envs = compress_all(*codec, in);
  for (const auto& env : ref_envs) refs.push_back(serialized(env));
  if (cfg.tamper) refs.front().back() ^= 0x1;

  drive_daq(*stream, main_phase, in, phase_seconds(cfg), nullptr);
  stream.reset();
  main_phase.print("daq");
  e.mae = sample_mae(*codec, ref_envs, in);

  if (!cfg.trace) return finish_result({&main_phase}, end_to_end(main_phase, e));

  Phase traced(phase_seconds(cfg));
  TraceScope scope(traced.ledger);
  TracingCodec traced_codec(*codec, scope.tracer);
  DaqSink traced_sink{traced, refs, true};
  StreamCompressor traced_stream(traced_codec, options,
                                 [&](std::uint64_t seq, WedgeEnvelope&& env) {
                                   traced_sink(seq, std::move(env));
                                 });
  drive_daq(traced_stream, traced, in, phase_seconds(cfg), &scope.tracer);
  scope.end();
  const StreamStats stats = traced_stream.finish();
  traced.print("daq traced");

  Layers l;
  const Replay r = replay_encode(*codec, *model, in, scope.tracer);
  fill_common_layers(l, traced, main_phase, scope, r);
  fill_stream_stats(l, stats);
  l.serialize_us = io_mean_us(traced);
  if (!cfg.trace_out.empty()) {
    write_chrome_trace(cfg.trace_out, "daq", "serialize", traced.ledger, traced.offered,
                       scope.tracer.calls(), scope.tracer.spans());
  }
  return finish_result({&main_phase, &traced}, per_layer(l, false));
}

// =============================================================================
// service: CompressionService, 64 sessions on bcae-int8 -> zfp; one wedge
// outstanding per session (credit-based front-end link).
// =============================================================================

struct ServiceRefs {
  std::vector<WedgeEnvelope> int8, zfp;
  std::vector<std::int64_t> int8_bytes, zfp_bytes;  ///< serialized sizes
};

/// The 64 clients of `service`, played by the generator thread: a session
/// holds one credit, spends it on a submit and gets it back when its sink
/// fires.
class ServiceClients {
 public:
  ServiceClients(Phase& phase, const Inputs& in, const ServiceRefs& refs)
      : phase_(phase), in_(in), refs_(refs), sessions_(kSessions) {}

  /// Open every session on `service` with the ladder (preferred first).
  void open(CompressionService& service, const std::vector<const WedgeCodec*>& ladder) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      nc::codec::SessionOptions so;
      so.ladder = ladder;
      so.sink = [this, s](std::uint64_t seq, WedgeEnvelope&& env) {
        on_envelope(s, seq, std::move(env));
      };
      sessions_[s].id = service.open_session(std::move(so));
    }
  }

  void drive(CompressionService& service, double seconds, Tracer* tracer) {
    Phase& p = phase_;
    const std::int64_t cap = static_cast<std::int64_t>(p.ledger.capacity());
    {
      std::lock_guard<std::mutex> lock(ready_mutex_);
      for (std::size_t s = 0; s < kSessions; ++s) ready_.push_back(s);
    }
    std::vector<std::size_t> batch;
    std::int64_t i = 0;
    p.window.start();
    while (p.window.advance(p.delivered.load(std::memory_order_acquire), seconds)) {
      {
        std::unique_lock<std::mutex> lock(ready_mutex_);
        ready_cv_.wait_for(lock, std::chrono::milliseconds(5),
                           [this] { return !ready_.empty(); });
        batch.swap(ready_);
      }
      for (const std::size_t s : batch) {
        if (i == cap) break;
        Session& sess = sessions_[s];
        // Session s alternates between inputs s and s + kSessions, so no
        // two in-flight wedges share storage.
        sess.idx = (s + kSessions * (sess.k++ % (in_.wedges.size() / kSessions))) %
                   in_.wedges.size();
        sess.wid = i;
        const Tensor& w = in_.wedges[sess.idx];
        if (tracer) tracer->bind(w.data(), i);
        WedgeRec& r = p.ledger[i];
        r.submit_start = now_ns();
        const auto res = service.submit(sess.id, w);
        r.submit_end = now_ns();
        ++i;
        if (res == nc::codec::SubmitResult::kAccepted) continue;
        if (res == nc::codec::SubmitResult::kShed) {
          ++p.shed;
        } else {
          ++p.refused;
        }
        std::lock_guard<std::mutex> lock(ready_mutex_);
        ready_.push_back(s);  // no sink will fire: the credit returns now
      }
      batch.clear();
      if (i == cap) break;
    }
    p.window.close();
    p.offered = i;
    for (auto& sess : sessions_) {
      const auto st = service.close_session(sess.id);
      p.failed += st.failed;
      staging_hwm = std::max(staging_hwm, st.queue_depth_hwm);
      session_shed += st.shed;
    }
    stats = service.finish();
    p.dropped = stats.pipeline.wedges_dropped;
    p.settle();
    if (session_shed != p.shed) {
      p.violations.push_back("sessions report " + std::to_string(session_shed) +
                             " shed, submit returned kShed " + std::to_string(p.shed));
    }
  }

  nc::codec::ServiceStats stats;
  std::int64_t staging_hwm = 0;
  std::int64_t session_shed = 0;

 private:
  struct Session {
    nc::codec::SessionId id = 0;
    std::int64_t wid = -1;     ///< the in-flight wedge
    std::size_t idx = 0;       ///< its input index
    std::int64_t k = 0;        ///< wedges offered so far
    std::int64_t last_seq = -1;
  };

  void on_envelope(std::size_t s, std::uint64_t seq, WedgeEnvelope&& env) {
    Session& sess = sessions_[s];
    WedgeRec& r = phase_.ledger[sess.wid];
    r.sink_start = now_ns();
    r.sink_tid = thread_index();
    if (static_cast<std::int64_t>(seq) <= sess.last_seq) phase_.misordered.fetch_add(1);
    sess.last_seq = static_cast<std::int64_t>(seq);
    const bool int8 = env.codec_id == refs_.int8[sess.idx].codec_id;
    const auto& ref = int8 ? refs_.int8[sess.idx] : refs_.zfp[sess.idx];
    if (!same_envelope(env, ref)) phase_.mismatched.fetch_add(1);
    r.bytes = int8 ? refs_.int8_bytes[sess.idx] : refs_.zfp_bytes[sess.idx];
    r.sink_end = now_ns();
    phase_.delivered.fetch_add(1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(ready_mutex_);
      ready_.push_back(s);
    }
    ready_cv_.notify_one();
  }

  Phase& phase_;
  const Inputs& in_;
  const ServiceRefs& refs_;
  std::vector<Session> sessions_;
  std::mutex ready_mutex_;
  std::condition_variable ready_cv_;
  std::vector<std::size_t> ready_;  ///< sessions holding a credit
};

nc::codec::ServiceOptions service_options() {
  nc::codec::ServiceOptions options;  // admission thread on, DRR quantum 8
  options.pipeline = pool_options();
  return options;
}

Result run_service(const RunConfig& cfg) {
  const Inputs in = make_inputs(cfg.seed, kEncodeDistinct);
  const auto options = service_options();

  ServiceRefs refs;
  Phase main_phase(phase_seconds(cfg));
  std::unique_ptr<ServiceClients> clients;
  std::unique_ptr<CompressionService> service;
  std::unique_ptr<WedgeCodec> int8, zfp;
  std::unique_ptr<BcaeModel> model;
  EndToEnd e;
  e.voxels = in.shape.voxels();
  e.setup_s = timed_setups([&] {
    if (service) service->finish();
    service.reset();
    int8.reset();
    zfp.reset();
    model = make_model();
    int8 = nc::codec::make_wedge_codec("bcae-int8", *model);
    zfp = nc::codec::make_wedge_codec("zfp", *model);
    (void)int8->compress_batch({in.wedges.front()});  // fills the lazy int8 weights
    service = std::make_unique<CompressionService>(options);
    clients = std::make_unique<ServiceClients>(main_phase, in, refs);
    clients->open(*service, {int8.get(), zfp.get()});
  });

  refs.int8 = compress_all(*int8, in);
  refs.zfp = compress_all(*zfp, in);
  for (const auto& env : refs.int8) {
    refs.int8_bytes.push_back(static_cast<std::int64_t>(serialized(env).size()));
  }
  for (const auto& env : refs.zfp) {
    refs.zfp_bytes.push_back(static_cast<std::int64_t>(serialized(env).size()));
  }
  if (cfg.tamper) refs.int8.front().payload.back() ^= 0x1;

  clients->drive(*service, phase_seconds(cfg), nullptr);
  service.reset();
  main_phase.print("service");
  std::printf("service: %lld degradation(s), staging hwm %lld\n",
              static_cast<long long>(clients->stats.degradations),
              static_cast<long long>(clients->staging_hwm));
  e.mae = sample_mae(*int8, refs.int8, in);

  if (!cfg.trace) return finish_result({&main_phase}, end_to_end(main_phase, e));

  Phase traced(phase_seconds(cfg));
  TraceScope scope(traced.ledger);
  TracingCodec traced_int8(*int8, scope.tracer);
  TracingCodec traced_zfp(*zfp, scope.tracer);
  ServiceClients traced_clients(traced, in, refs);
  {
    CompressionService traced_service(options);
    traced_clients.open(traced_service, {&traced_int8, &traced_zfp});
    traced_clients.drive(traced_service, phase_seconds(cfg), &scope.tracer);
  }
  scope.end();
  traced.print("service traced");

  Layers l;
  const Replay r = replay_encode(*int8, *model, in, scope.tracer);
  fill_common_layers(l, traced, main_phase, scope, r);
  fill_stream_stats(l, traced_clients.stats.pipeline);
  l.staging_hwm = static_cast<double>(traced_clients.staging_hwm);
  l.degradations = static_cast<double>(traced_clients.stats.degradations);
  l.shed = static_cast<double>(traced_clients.stats.wedges_shed);
  l.service_failed = static_cast<double>(traced.failed);
  if (!cfg.trace_out.empty()) {
    write_chrome_trace(cfg.trace_out, "service", "", traced.ledger, traced.offered,
                       scope.tracer.calls(), scope.tracer.spans());
  }
  return finish_result({&main_phase, &traced}, per_layer(l, true));
}

// =============================================================================
// analysis: stored bcae-fp16 envelopes parsed and decoded by an unordered
// StreamDecompressor; one blocking client, saturated.
// =============================================================================

struct AnalysisRefs {
  std::vector<std::string> stored;  ///< serialized envelopes, as on disk
  std::vector<Tensor> decoded;      ///< direct decompress of each
};

struct AnalysisSink {
  Phase& phase;
  const AnalysisRefs& refs;
  const Inputs& in;
  std::mutex mutex;
  nc::metrics::MetricsAccumulator quality;

  void operator()(std::uint64_t seq, Tensor&& recon) {
    WedgeRec& r = phase.ledger[static_cast<std::int64_t>(seq)];
    r.sink_start = now_ns();
    r.sink_tid = thread_index();
    const std::size_t idx = seq % refs.decoded.size();
    if (!same_tensor(recon, refs.decoded[idx])) phase.mismatched.fetch_add(1);
    const auto m = nc::metrics::evaluate_reconstruction(recon, in.wedges[idx]);
    {
      std::lock_guard<std::mutex> lock(mutex);
      quality.add(m, recon.numel());
    }
    r.sink_end = now_ns();
    phase.delivered.fetch_add(1, std::memory_order_release);
  }
};

void drive_analysis(StreamDecompressor& stream, Phase& p, const AnalysisRefs& refs,
                    double seconds, Tracer* tracer) {
  const std::int64_t cap = static_cast<std::int64_t>(p.ledger.capacity());
  std::int64_t i = 0;
  p.window.start();
  while (i < cap && p.window.advance(p.delivered.load(std::memory_order_acquire), seconds)) {
    const std::string& bytes = refs.stored[static_cast<std::size_t>(i) % refs.stored.size()];
    WedgeRec& r = p.ledger[i];
    if (tracer) r.io_start = now_ns();
    std::istringstream is(bytes);
    WedgeEnvelope env = WedgeEnvelope::deserialize(is);
    if (tracer) {
      r.io_end = now_ns();
      tracer->bind(env.payload.data(), i);
    }
    r.bytes = static_cast<std::int64_t>(bytes.size());
    r.submit_start = now_ns();
    stream.submit(std::move(env));
    r.submit_end = now_ns();
    ++i;
  }
  p.window.close();
  p.offered = i;
  const StreamStats stats = stream.finish();
  p.failed = stats.wedges_failed;
  p.dropped = stats.wedges_dropped;
  p.settle();
}

Result run_analysis(const RunConfig& cfg) {
  const Inputs in = make_inputs(cfg.seed, kDecodeDistinct);
  const StreamOptions options = pool_options();

  AnalysisRefs refs;
  Phase main_phase(phase_seconds(cfg));
  AnalysisSink sink{main_phase, refs, in, {}, {}};
  std::unique_ptr<StreamDecompressor> stream;
  std::unique_ptr<WedgeCodec> codec;
  std::unique_ptr<BcaeModel> model;
  // The stored envelopes are inputs, written before any timed set-up.
  const std::vector<WedgeEnvelope> envs = [&] {
    auto writer_model = make_model();
    return compress_all(*nc::codec::make_wedge_codec("bcae-fp16", *writer_model), in);
  }();
  EndToEnd e;
  e.voxels = in.shape.voxels();
  e.setup_s = timed_setups([&] {
    if (stream) stream->finish();
    stream.reset();
    codec.reset();
    model = make_model();
    codec = nc::codec::make_wedge_codec("bcae-fp16", *model);
    (void)codec->decompress_batch({envs.front()});  // fills the lazy decoder weights
    stream = std::make_unique<StreamDecompressor>(
        *codec, options,
        [&sink](std::uint64_t seq, Tensor&& t) { sink(seq, std::move(t)); });
  });

  for (const auto& env : envs) {
    refs.stored.push_back(serialized(env));
    std::istringstream is(refs.stored.back());
    refs.decoded.push_back(codec->decompress(WedgeEnvelope::deserialize(is)));
  }
  if (cfg.tamper) refs.decoded.front().data()[0] += 1.0f;

  drive_analysis(*stream, main_phase, refs, phase_seconds(cfg), nullptr);
  stream.reset();
  main_phase.print("analysis");
  e.mae = sink.quality.result().mae;

  if (!cfg.trace) return finish_result({&main_phase}, end_to_end(main_phase, e));

  Phase traced(phase_seconds(cfg));
  TraceScope scope(traced.ledger);
  TracingCodec traced_codec(*codec, scope.tracer);
  AnalysisSink traced_sink{traced, refs, in, {}, {}};
  StreamDecompressor traced_stream(
      traced_codec, options,
      [&traced_sink](std::uint64_t seq, Tensor&& t) { traced_sink(seq, std::move(t)); });
  drive_analysis(traced_stream, traced, refs, phase_seconds(cfg), &scope.tracer);
  scope.end();
  const StreamStats stats = traced_stream.finish();
  traced.print("analysis traced");

  Layers l;
  const Replay r = replay_decode(*codec, *model, envs, scope.tracer);
  fill_common_layers(l, traced, main_phase, scope, r);
  fill_stream_stats(l, stats);
  l.parse_us = io_mean_us(traced);
  if (!cfg.trace_out.empty()) {
    write_chrome_trace(cfg.trace_out, "analysis", "parse", traced.ledger, traced.offered,
                       scope.tracer.calls(), scope.tracer.spans());
  }
  return finish_result({&main_phase, &traced}, per_layer(l, false));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"daq", "service", "analysis"};
  return names;
}

Result run_workload(const RunConfig& config) {
  (void)thread_index();  // the generator (this thread) is tid 0 in traces
  if (config.workload == "daq") return run_daq(config);
  if (config.workload == "service") return run_service(config);
  if (config.workload == "analysis") return run_analysis(config);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
