/// \file harness.hpp
/// \brief Shared pieces of the repository benchmark: run configuration,
///        results, per-wedge timestamps, process counters and the tracing
///        decorator that records one span per codec call.
///
/// The benchmark drives only public APIs of the program (codec, bcae, tpc,
/// metrics, core::Profiler's setter).  Every timestamp is taken in this
/// directory's code, around calls into a layer; nothing is added to src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "codec/wedge_codec.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock), the one time base of every span.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupt one reference output before the run: the output check must
  /// then fail (smoke mode proves the check can fail).
  bool tamper = false;
  /// Chrome trace-event JSON written at the end of a traced run ("" = none).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Run one workload end to end: inputs, set-up, measured phase(s), checks.
Result run_workload(const RunConfig& config);

/// The workload names run_workload accepts.
const std::vector<std::string>& workload_names();

// --- process counters -------------------------------------------------------

/// Process-wide user+sys CPU and context switches (getrusage RUSAGE_SELF).
struct Usage {
  double cpu_s = 0.0;
  std::int64_t ctx_switches = 0;  ///< voluntary + involuntary
  static Usage now();
};

/// Peak resident set of this process so far, in MB (ru_maxrss).
double rss_peak_mb();

/// OS threads of this process right now (/proc/self/stat), 0 if unknown.
int os_threads();

/// q-quantile (0..1) of `v` by the nearest-rank rule; 0 for an empty set.
double quantile(std::vector<double> v, double q);

double median(std::vector<double> v);

// --- per-wedge ledger -------------------------------------------------------

/// Timestamps (ns, 0 = not reached) of one offered wedge.  `wid` is the
/// generator's submit counter, the id every span of the wedge shares.
struct WedgeRec {
  std::int64_t submit_start;
  std::int64_t submit_end;
  std::int64_t call_start;  ///< codec call carrying the wedge (traced)
  std::int64_t call_end;
  std::int64_t sink_start;
  std::int64_t sink_end;
  std::int64_t io_start;    ///< envelope serialize (daq) / parse (analysis)
  std::int64_t io_end;
  std::int64_t bytes;       ///< serialized envelope bytes of the wedge
  std::int64_t sink_tid;    ///< thread_index() of the sink call
};

/// Fixed-capacity, zero-initialised record array indexed by wid.  The
/// memory comes from calloc, so pages no wedge reaches are never touched
/// and the peak RSS stays that of the program.  Distinct threads write
/// distinct fields; the pipeline's own hand-offs order them.
class Ledger {
 public:
  explicit Ledger(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }
  WedgeRec& operator[](std::int64_t wid) { return recs_.get()[wid]; }
  const WedgeRec& operator[](std::int64_t wid) const { return recs_.get()[wid]; }

 private:
  struct Free {
    void operator()(WedgeRec* p) const { std::free(p); }
  };
  std::size_t capacity_;
  std::unique_ptr<WedgeRec, Free> recs_;
};

// --- tracing ----------------------------------------------------------------

/// A span covering a batch of wedges: a codec call in the pipeline, or a
/// step of the single-caller replay.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  int tid = 0;
  int wedges = 0;
};

/// Small stable index of the calling thread (0 = first thread to ask).
int thread_index();

/// Spans of one traced phase.  The generator binds each wedge's identity
/// (tensor storage or envelope payload address) to its wid before submit;
/// the decorator resolves the identities of a batch at call start, so a
/// codec call's span carries the wids it served.  Several in-flight wedges
/// may share one storage (the inputs are shallow copies of a fixed set):
/// identities resolve first-in first-out.
class Tracer {
 public:
  explicit Tracer(Ledger& ledger) : ledger_(ledger) {}

  void bind(const void* key, std::int64_t wid);
  std::vector<std::int64_t> resolve(const std::vector<const void*>& keys);
  void record_call(const char* name, std::int64_t start, std::int64_t end,
                   const std::vector<std::int64_t>& wids);
  /// A span outside the pipeline (the replay).
  void add_span(Span span);

  /// Snapshots (call after the pipeline has finished).
  std::vector<Span> calls() const;
  std::vector<Span> spans() const;

 private:
  Ledger& ledger_;
  mutable std::mutex mutex_;
  std::unordered_map<const void*, std::deque<std::int64_t>> pending_;
  std::vector<Span> calls_;
  std::vector<Span> spans_;
};

/// WedgeCodec decorator: forwards to `inner` and records one span per
/// compress_batch / decompress_batch call.
class TracingCodec final : public nc::codec::WedgeCodec {
 public:
  TracingCodec(const nc::codec::WedgeCodec& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::uint8_t codec_id() const override { return inner_.codec_id(); }
  std::string name() const override { return inner_.name(); }
  std::vector<nc::codec::WedgeEnvelope> compress_batch(
      const std::vector<nc::core::Tensor>& wedges) const override;
  std::vector<nc::core::Tensor> decompress_batch(
      const std::vector<nc::codec::WedgeEnvelope>& envelopes) const override;

 private:
  const nc::codec::WedgeCodec& inner_;
  Tracer& tracer_;
};

/// Write spans as Chrome trace-event JSON (viewable in Perfetto).
/// Per-wedge queue and emit waits become async events keyed by wid;
/// `io_name` labels the ledger's io span ("" = the workload has none).
void write_chrome_trace(const std::string& path, const std::string& workload,
                        const char* io_name, const Ledger& ledger,
                        std::int64_t n_wedges,
                        const std::vector<Span>& calls,
                        const std::vector<Span>& spans);

}  // namespace perfbench
