/// \file stream_pipeline.hpp
/// \brief Generic worker-pool streaming stage: the threading skeleton shared
///        by the write-side StreamCompressor and read-side StreamDecompressor.
///
/// The paper's deployment is two-sided: a real-time encoder keeps up with the
/// collision rate at the DAQ, and offline analysis later runs the decoder
/// heads over the stored bitstreams.  Both directions need the same
/// machinery — a bounded intake, a pool of workers draining it in batches
/// through some transform, sequence numbering, optional in-order emission,
/// failure containment and idempotent teardown — so that machinery lives
/// here once, parameterized by the batch transform:
///
///   StreamPipeline<In, Out>:  In items -> [intake] -> n_workers x
///       transform(batch of In) -> Out items -> sink(seq, Out)
///
/// The intake is a `ShardedQueue` (sharded_queue.hpp) with one bounded shard
/// per pool slot and batch work-stealing; a one-worker pipeline gets one
/// shard, a plain bounded FIFO.
///
/// Concurrency model (identical for every instantiation):
///  * Every accepted item gets a sequence number matching submission (FIFO)
///    order; the sink receives it alongside the payload.  A popped batch is
///    ascending in sequence number (per-shard FIFO).  With one worker the
///    numbers are also contiguous; with several, batches may have gaps
///    (items routed to sibling shards), which the ordered cursor tolerates.
///  * Adaptive batching: each worker sizes its next drain from the current
///    intake depth — toward `batch_size` when the pipeline is backed up
///    (throughput), toward 1 when lightly loaded (latency, and batches
///    spread across workers instead of one worker grabbing the whole
///    trickle).
///  * Unordered mode (default): workers invoke the sink as soon as a batch
///    finishes, possibly concurrently — the sink must be thread-safe when
///    `n_workers > 1`.
///  * Ordered mode: outputs pass through a `Reorderer` (reorderer.hpp), the
///    cursor every CompressionService session uses too.  Sink calls never
///    overlap and see strictly increasing sequence numbers, so the sink
///    needs no internal locking, and a failed item is a gap that advances
///    the cursor.  The sink runs outside the pipeline's locks.  The buffer
///    is unbounded: while a head-of-line batch stalls, the outputs that
///    finish behind it wait in memory.
///  * A transform failure (throw, or wrong output count) drops the whole
///    batch into `wedges_failed` without killing the worker (a dead worker
///    turns blocking submits into a deadlock) or stalling the ordered cursor.
///  * Spill tier (`StreamOptions::spill_dir`, off by default): when a submit
///    finds the intake full — and, with `spill_deadline_s`, space has not
///    appeared within the deadline — the item is serialized raw into an
///    append-only on-disk log (spill.hpp) instead of being dropped, keeping
///    its already-reserved sequence number.  A drainer thread replays
///    spilled items back into the intake (oldest first — spill appends are
///    serialized under the submit mutex, so spill order is seq order)
///    whenever depth falls to half the intake capacity, and `finish()`
///    replays everything left before closing the intake, so backpressure is
///    lossless: `wedges_dropped` stays 0 unless the spill itself fails
///    (unwritable disk, `spill_max_bytes` quota — the disk-full containment
///    path) or the pipeline is already finishing.  Replayed items re-enter
///    the intake out of arrival order relative to fresh submissions; the
///    ordered cursor holds whatever finishes ahead of them.
///  * Elastic pool (`StreamOptions::elastic`, off by default): the pipeline
///    spawns `max_workers` threads up front and varies how many are *live*
///    between `min_workers` and `max_workers` — surplus workers park on a
///    condvar between batches, so scale-up is a notify (microseconds), not
///    a thread spawn.  A controller thread (autoscale.hpp holds the pure
///    decision policy) samples intake depth, busy fraction and spill
///    activity every `scale_interval_s`; `scale_interval_s == 0` is manual
///    mode, driven by `set_live_workers()`.  With `pin_workers`, workers are
///    pinned node-major over the allowed CPU set (util/topology.hpp) and
///    intake shards are homed on their owner's NUMA node so depth-based
///    steals prefer same-node shards; unsupported platforms degrade to a
///    no-op.
///  * One scheduler (util/parallel.hpp): the core budget is the OpenMP team
///    width of the thread that constructed the pipeline.  Before every batch
///    a worker sets its own thread's width to budget / live workers (at
///    least 1), or to 1 when it is pinned to a core, so the workers share
///    the budget instead of each forking a full team inside the transform.
///  * `finish()` is idempotent (atomic exchange) and safe to call from any
///    thread, including implicitly via the destructor after an explicit
///    `finish()`.  It returns after the last sink call.
///
/// Timing: per-worker `active_s` is thread-time spent in transform+sink; the
/// aggregate `elapsed_s` is the union of busy intervals (wall time during
/// which at least one worker was busy), so `throughput_wps()` reflects true
/// parallel throughput rather than summed thread-time.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "codec/autoscale.hpp"
#include "codec/reorderer.hpp"
#include "codec/sharded_queue.hpp"
#include "codec/spill.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/serialize.hpp"
#include "util/timer.hpp"
#include "util/topology.hpp"

namespace nc::codec {

/// Pipeline configuration knobs (shared by both stream directions).
struct StreamOptions {
  /// Intake bound (backpressure threshold), rounded up to a multiple of
  /// max_workers (one intake shard per pool slot).
  std::size_t queue_capacity = 64;
  std::size_t batch_size = 8;      ///< max items per transform pass (Fig. 6)
  std::size_t n_workers = 1;       ///< worker threads draining the intake
  bool ordered = false;            ///< reorder output to submission order
  /// Spill tier: when non-empty, submits that would drop on a full intake
  /// are serialized into segment files under this directory instead
  /// (lossless backpressure) and replayed once depth falls back to half the
  /// intake capacity.  Requires a SpillCodec at pipeline construction.
  /// Give each pipeline its own directory (segments are instance-prefixed,
  /// so sharing one merely mixes unrelated files).
  std::string spill_dir;
  /// Spill enabled: how long a submit may wait for intake space before
  /// diverting to disk (0 = spill immediately).  Applies to try_submit and
  /// submit alike — with a spill tier, even the blocking submit never
  /// blocks past the deadline.
  double spill_deadline_s = 0.0;
  /// Cap on on-disk spill bytes (0 = unbounded).  An append that would
  /// exceed it fails that wedge into wedges_dropped — the disk-full
  /// containment path — without poisoning the tier.
  std::size_t spill_max_bytes = 0;
  /// Keep fully-replayed spill segments on disk after finish() (audit /
  /// replay-after-close via SpillReader) instead of deleting as they drain.
  bool spill_keep = false;
  /// Codec id stamped into each spill segment header (0 = untagged) so a
  /// kept log replayed under a different codec is rejected at open instead
  /// of failing per-wedge downstream.  StreamCompressor/StreamDecompressor
  /// fill this from their codec automatically.
  std::uint32_t spill_codec_id = 0;

  // --- Elastic, topology-aware pool (autoscale.hpp / util/topology.hpp) ---
  /// Autoscale the live worker count in [min_workers, max_workers] from
  /// observed load.  The pipeline spawns max_workers threads up front and
  /// parks surplus ones on a condvar (scale-up is a notify, not a thread
  /// spawn); n_workers becomes the *initial* live count.  Off (default):
  /// the pool is the static n_workers it always was.
  bool elastic = false;
  std::size_t min_workers = 0;  ///< elastic floor (0 = 1)
  std::size_t max_workers = 0;  ///< elastic ceiling / pool size (0 = n_workers)
  /// Controller sampling period.  0 with elastic = manual mode: no
  /// controller thread runs and scaling is driven via set_live_workers()
  /// (deterministic tests, external controllers).
  double scale_interval_s = 0.02;
  std::size_t scale_window = 8;    ///< samples per scaling decision
  std::size_t scale_cooldown = 4;  ///< hold ticks after a decision (hysteresis)
  /// Pin each worker to a core (node-major over the allowed CPU set) and
  /// home each intake shard on its owner's NUMA node, so steals prefer
  /// same-node shards.  Graceful no-op where affinity is unsupported (or
  /// NC_TOPOLOGY=off): workers run unpinned, placement stays advisory.
  bool pin_workers = false;
  /// Observability: invoked once per scaling decision (from the controller
  /// thread, or the set_live_workers caller).  Must not call back into
  /// finish().
  ScaleEventHook on_scale_event;
};

/// Per-worker accounting, reported in StreamStats::per_worker.  The counter
/// names keep the write-side vocabulary ("compressed" = items that made it
/// through the transform) so existing consumers read unchanged; for the
/// read-side pipeline they count decoded wedges.
struct WorkerStats {
  std::int64_t wedges_compressed = 0;
  std::int64_t batches = 0;
  std::int64_t batches_stolen = 0;  ///< pops served from a sibling's shard
  std::int64_t payload_bytes = 0;
  double active_s = 0.0;  ///< thread-time spent in transform+sink
};

struct StreamStats {
  std::int64_t wedges_in = 0;        ///< accepted into the intake
  std::int64_t wedges_dropped = 0;   ///< lost: backpressure or submit after close
  std::int64_t wedges_compressed = 0;  ///< made it through the transform
  std::int64_t wedges_failed = 0;    ///< accepted but lost to a transform error
  std::int64_t payload_bytes = 0;
  std::int64_t batches_stolen = 0;   ///< pops served off-shard for a dry shard
  std::int64_t wedges_spilled = 0;   ///< diverted to the spill tier on a full intake
  std::int64_t wedges_replayed = 0;  ///< spilled wedges re-injected into the intake
  std::int64_t spill_bytes_hwm = 0;  ///< deepest the on-disk spill tier ever got
  std::int64_t queue_depth_hwm = 0;  ///< deepest the intake ever got
  /// Effective intake capacity: queue_capacity, rounded up to a shard
  /// multiple (the bound queue_depth_hwm runs under).
  std::int64_t queue_capacity = 0;
  double elapsed_s = 0.0;  ///< wall time with >=1 worker busy (parallel active time)
  double cpu_s = 0.0;      ///< summed per-worker active time
  // Elastic pool: scaling decisions as first-class observability.  In a
  // static pool hwm == lwm == n_workers, events are 0 and avg is exact.
  std::int64_t scale_up_events = 0;    ///< live target raised (incl. spill jumps)
  std::int64_t scale_down_events = 0;  ///< live target lowered
  std::int64_t workers_hwm = 0;        ///< highest live worker target reached
  std::int64_t workers_lwm = 0;        ///< lowest live worker target reached
  std::int64_t workers_pinned = 0;     ///< workers whose core pin succeeded
  /// Time-weighted mean of the live worker target over the pipeline's
  /// lifetime (construction to finish) — the quiet-phase CPU saving, as a
  /// number.
  double avg_live_workers = 0.0;
  std::vector<WorkerStats> per_worker;

  double throughput_wps() const {
    return elapsed_s > 0 ? wedges_compressed / elapsed_s : 0.0;
  }
};

namespace detail {
// Zero sizes are nonsensical (capacity 0 would deadlock blocking submits);
// clamp before the intake is constructed from them.
inline StreamOptions normalized_stream_options(StreamOptions options) {
  if (options.queue_capacity == 0) options.queue_capacity = 1;
  if (options.batch_size == 0) options.batch_size = 1;
  if (options.n_workers == 0) options.n_workers = 1;
  if (options.elastic) {
    if (options.max_workers == 0) options.max_workers = options.n_workers;
    if (options.min_workers == 0) options.min_workers = 1;
    options.min_workers = std::min(options.min_workers, options.max_workers);
    // n_workers is the initial live count, inside the elastic range.
    options.n_workers = std::clamp(options.n_workers, options.min_workers,
                                   options.max_workers);
  } else {
    // Static pool: the range collapses to a point so every consumer of
    // min/max (pool sizing, clamps, stats) reads one consistent story.
    options.min_workers = options.n_workers;
    options.max_workers = options.n_workers;
  }
  return options;
}
}  // namespace detail

/// Generic multi-worker streaming stage: `n_workers` threads drain the
/// intake in batches of up to `batch_size` through `transform` (batching is
/// what buys throughput on the encoder/decoder, Fig. 6) and hand every
/// output to the sink.  `StreamCompressor` and `StreamDecompressor` are thin
/// adapters over this class; tests instantiate it directly with synthetic
/// transforms.
template <typename In, typename Out>
class StreamPipeline {
 public:
  /// Sink receiving each output alongside its submission sequence number.
  using SeqSink = std::function<void(std::uint64_t, Out&&)>;
  /// Batch transform: must return exactly one output per input, in input
  /// order.  A throw (or a wrong-sized return) fails the whole batch.
  using BatchFn = std::function<std::vector<Out>(std::vector<In>&&)>;
  /// Per-output byte accounting for StreamStats::payload_bytes (may be null).
  using ByteCounter = std::function<std::int64_t(const Out&)>;

  /// Raw serializer pair for the spill tier: encode turns an input item
  /// into the record payload SpillLog stores, decode inverts it on replay.
  /// Only consulted when StreamOptions::spill_dir is set.
  struct SpillCodec {
    std::function<std::string(const In&)> encode;
    std::function<In(const std::string&)> decode;
    explicit operator bool() const {
      return static_cast<bool>(encode) && static_cast<bool>(decode);
    }
  };

  StreamPipeline(const StreamOptions& options, BatchFn transform,
                 ByteCounter payload_bytes, SeqSink sink,
                 SpillCodec spill_codec = {})
      : options_(detail::normalized_stream_options(options)),
        transform_(std::move(transform)),
        payload_bytes_(std::move(payload_bytes)),
        sink_(std::move(sink)),
        spill_codec_(std::move(spill_codec)),
        // One shard per pool slot, keyed on the ceiling so an elastic pool
        // born with one live worker still has a shard for every worker it
        // may wake.
        intake_(options_.max_workers, options_.queue_capacity) {
    // Stand the spill tier up before any thread exists: a SpillLog failure
    // (unwritable dir) must abort construction cleanly, not orphan workers.
    if (!options_.spill_dir.empty()) {
      if (!spill_codec_) {
        throw std::invalid_argument(
            "StreamPipeline: spill_dir set but no spill codec provided");
      }
      SpillOptions sopt;
      sopt.dir = options_.spill_dir;
      sopt.max_bytes = options_.spill_max_bytes;
      sopt.keep = options_.spill_keep;
      sopt.codec_id = options_.spill_codec_id;
      spill_ = std::make_unique<SpillLog>(sopt);
      drainer_ = std::thread([this] { drainer_loop(); });
    }
    // Topology plan (before any worker exists: placement_ and shard homes
    // are written once here and read without synchronization afterwards).
    if (options_.pin_workers) {
      const util::Topology& topo = util::system_topology();
      if (topo.affinity_supported && !topo.cpus.empty()) {
        // Claim a process-wide contiguous run of core slots (node-major):
        // the always-live low-index workers land on one node first, so a
        // mostly scaled-down elastic pool stays NUMA-compact, and two
        // pipelines built in one process get disjoint cores instead of both
        // pinning worker 0 to cpu 0.
        placement_ = util::claim_cpu_slots(options_.max_workers);
        if (!placement_.empty()) {
          // Home each shard on its owner slot's node so depth-based steals can
          // prefer same-node shards.
          std::vector<int> nodes(options_.max_workers);
          for (std::size_t s = 0; s < nodes.size(); ++s) {
            nodes[s] = placement_[s % placement_.size()].node;
          }
          intake_.set_shard_nodes(std::move(nodes));
        }
      }
    }
    intake_.set_active_workers(options_.n_workers);
    // The pool is always max_workers threads; elasticity is which of them
    // are live (the rest park on scale_cv_).  A static pool has
    // max_workers == n_workers, so nothing changes for it.
    worker_stats_.resize(options_.max_workers);
    workers_.reserve(options_.max_workers);
    for (std::size_t w = 0; w < options_.max_workers; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
    if (options_.elastic && options_.scale_interval_s > 0) {
      controller_ = std::thread([this] { controller_loop(); });
    }
  }

  ~StreamPipeline() { (void)finish(); }

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Non-blocking submit with backpressure accounting.  With the spill
  /// tier enabled, a full intake diverts the item to disk (after waiting up
  /// to spill_deadline_s for space) instead of dropping it, so `false`
  /// means the item is truly lost: spill failure or submit after finish.
  bool try_submit(In item) {
    // Counters update under the same lock as the push: a concurrent finish()
    // snapshot must never see a processed item missing from wedges_in.  The
    // lock also serializes pushes, so intake order matches seq order and a
    // popped batch is ascending.
    {
      std::lock_guard<std::mutex> lock(submit_mutex_);
      if (!spill_) {
        const bool accepted = push_locked(item);
        if (!accepted) wedges_dropped_.fetch_add(1, std::memory_order_relaxed);
        return accepted;
      }
      // A failed push leaves `item` intact for the spill path (try_push
      // moves only on success).
      if (push_locked(item)) return true;
    }
    return spill_or_drop(std::move(item));
  }

  /// Blocking submit (test/offline use).  With the spill tier enabled this
  /// blocks at most spill_deadline_s before spilling — disk absorbs the
  /// burst instead of the producer's latency.
  void submit(In item) {
    if (spill_) {
      (void)try_submit(std::move(item));
      return;
    }
    // Wait for space *outside* submit_mutex_: holding it across a blocking
    // push would stall concurrent try_submit callers (the real-time path)
    // behind an offline producer parked on a full intake.
    while (true) {
      {
        std::lock_guard<std::mutex> lock(submit_mutex_);
        if (push_locked(item)) return;
      }
      if (!intake_.wait_for_space()) {
        // Intake closed (submit after finish); the item is lost and must
        // show up in the drop count.
        wedges_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  /// Close the intake, drain it, join the workers and return totals plus
  /// the per-worker breakdown.  Idempotent: later calls return the same
  /// processing totals with up-to-date intake/drop counters.
  StreamStats finish() {
    std::lock_guard<std::mutex> lock(finish_mutex_);
    if (!finished_.exchange(true)) {
      // Quiesce scaling first: close the integral, stop the controller, and
      // wake parked workers so they rejoin the pool and help drain the
      // intake (pop_batch returning 0 is what ends them, same as always).
      {
        std::lock_guard<std::mutex> scale_lock(scale_mutex_);
        scale_closing_.store(true, std::memory_order_release);
        integrate_live_locked();
      }
      ctrl_cv_.notify_all();
      scale_cv_.notify_all();
      if (controller_.joinable()) controller_.join();
      if (spill_) {
        // Seal the spill tier before draining it: once spill_closed_ is
        // observed (under submit_mutex_, mutually exclusive with every
        // append), a late submit drops instead of spilling into a log
        // nobody will replay.  Only then may the drainer's final sweep
        // treat "pending == 0" as terminal.
        {
          std::lock_guard<std::mutex> submit_lock(submit_mutex_);
          spill_closed_ = true;
        }
        {
          std::lock_guard<std::mutex> drainer_lock(drainer_mutex_);
          final_drain_ = true;
        }
        drainer_cv_.notify_all();
        if (drainer_.joinable()) drainer_.join();
        merged_.spill_bytes_hwm = static_cast<std::int64_t>(spill_->bytes_hwm());
        spill_->close();
      }
      intake_.close();
      for (auto& worker : workers_) {
        if (worker.joinable()) worker.join();
      }
      merged_.per_worker = worker_stats_;
      for (const auto& ws : worker_stats_) {
        merged_.wedges_compressed += ws.wedges_compressed;
        merged_.payload_bytes += ws.payload_bytes;
        merged_.batches_stolen += ws.batches_stolen;
        merged_.cpu_s += ws.active_s;
      }
      merged_.elapsed_s = busy_s_;  // workers joined: no interval still open
      merged_.queue_depth_hwm =
          static_cast<std::int64_t>(intake_.depth_high_water());
      merged_.queue_capacity = static_cast<std::int64_t>(intake_.capacity());
      {
        // Writers are quiescent (controller joined, set_live_workers bails
        // on scale_closing_); the lock is belt-and-braces for a racing call
        // that entered before the seal.
        std::lock_guard<std::mutex> scale_lock(scale_mutex_);
        merged_.scale_up_events = scale_up_events_;
        merged_.scale_down_events = scale_down_events_;
        merged_.workers_hwm = static_cast<std::int64_t>(workers_hwm_);
        merged_.workers_lwm = static_cast<std::int64_t>(workers_lwm_);
        merged_.avg_live_workers =
            live_mark_s_ > 0
                ? live_integral_ / live_mark_s_
                : static_cast<double>(
                      live_target_.load(std::memory_order_relaxed));
      }
      merged_.workers_pinned = workers_pinned_.load(std::memory_order_relaxed);
    }
    StreamStats out = merged_;
    {
      // Snapshot under submit_mutex_: a producer parked between making its
      // item visible (try_push) and bumping wedges_in_ would otherwise let a
      // concurrent finish() report wedges_compressed > wedges_in.
      std::lock_guard<std::mutex> submit_lock(submit_mutex_);
      out.wedges_in = wedges_in_.load(std::memory_order_relaxed);
      out.wedges_dropped = wedges_dropped_.load(std::memory_order_relaxed);
      out.wedges_spilled = wedges_spilled_.load(std::memory_order_relaxed);
    }
    out.wedges_failed = wedges_failed_.load(std::memory_order_relaxed);
    out.wedges_replayed = wedges_replayed_.load(std::memory_order_relaxed);
    return out;
  }

  const StreamOptions& options() const { return options_; }

  /// Set the live worker target.  Clamps to [min_workers, max_workers]
  /// (a static pool's range is a point, so this is a no-op there), wakes
  /// parked workers on scale-up, re-routes fresh intake pushes onto live
  /// workers' shards, and fires on_scale_event.  Safe from any thread —
  /// this is both the controller's apply path and the manual scaling entry
  /// point when scale_interval_s == 0.  Returns the applied target; a call
  /// racing finish() leaves the target unchanged.
  std::size_t set_live_workers(std::size_t n, const char* reason = "manual") {
    n = std::clamp(n, options_.min_workers, options_.max_workers);
    std::size_t prev;
    {
      std::lock_guard<std::mutex> lock(scale_mutex_);
      if (scale_closing_.load(std::memory_order_relaxed)) {
        return live_target_.load(std::memory_order_relaxed);
      }
      prev = live_target_.load(std::memory_order_relaxed);
      if (n == prev) return prev;
      integrate_live_locked();
      live_target_.store(n, std::memory_order_release);
      if (n > prev) {
        ++scale_up_events_;
        workers_hwm_ = std::max(workers_hwm_, n);
      } else {
        ++scale_down_events_;
        workers_lwm_ = std::min(workers_lwm_, n);
      }
    }
    scale_cv_.notify_all();  // scale-up: wake parked workers
    intake_.set_active_workers(n);
    if (options_.on_scale_event) {
      ScaleEvent event;
      event.t_s = lifetime_.elapsed_s();
      event.from = prev;
      event.to = n;
      event.reason = reason;
      options_.on_scale_event(event);
    }
    return n;
  }

  /// Current live worker target (surplus parked workers excluded).
  std::size_t live_workers() const {
    return live_target_.load(std::memory_order_relaxed);
  }

  /// Per-worker-slot core placement when pinning is active; empty when
  /// pin_workers is off, affinity is unsupported, or NC_TOPOLOGY=off.
  const std::vector<util::CpuInfo>& placement() const { return placement_; }

  // --- Live load observability (lock-free monitoring; values are instant
  // snapshots and may be stale by one operation) ------------------------
  /// Wedges diverted to the spill tier so far.
  std::int64_t wedges_spilled() const {
    return wedges_spilled_.load(std::memory_order_relaxed);
  }
  /// Spilled records written but not yet replayed (0 without a spill tier).
  std::size_t spill_pending() const { return spill_ ? spill_->pending() : 0; }
  /// Bytes currently held in spill segment files (0 without a spill tier).
  std::size_t spill_bytes_on_disk() const {
    return spill_ ? spill_->bytes_on_disk() : 0;
  }
  /// Items queued at the intake right now.
  std::size_t intake_depth() const { return intake_.size(); }
  /// The intake's effective capacity (sharding may round it up).
  std::size_t intake_capacity() const { return intake_.capacity(); }

 private:
  /// A queued item tagged with its FIFO sequence number.
  struct Item {
    std::uint64_t seq = 0;
    In value;
  };

  /// Push under submit_mutex_ (caller holds it); true when accepted.  The
  /// item is moved into the intake on success and restored on failure —
  /// no deep copy on either path, so retry loops (blocking submit, the
  /// spill deadline wait) and the spill fallback stay cheap.
  bool push_locked(In& item) {
    Item queued{next_seq_, std::move(item)};
    if (!intake_.try_push(std::move(queued))) {
      item = std::move(queued.value);  // failed push left `queued` intact
      return false;
    }
    ++next_seq_;
    wedges_in_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Slow path of a spill-enabled submit whose first push failed: wait up
  /// to the deadline for intake space, then serialize to the spill log.
  /// Returns false only when the item is truly lost (counted dropped).
  bool spill_or_drop(In&& item) {
    using clock = std::chrono::steady_clock;
    if (options_.spill_deadline_s > 0) {
      const auto deadline =
          clock::now() + std::chrono::duration_cast<clock::duration>(
                             std::chrono::duration<double>(
                                 options_.spill_deadline_s));
      while (true) {
        const auto now = clock::now();
        if (now >= deadline) break;
        const SpaceWait wait = intake_.wait_for_space_for(
            std::chrono::duration_cast<std::chrono::nanoseconds>(deadline -
                                                                 now));
        if (wait == SpaceWait::kClosed) break;  // finishing: drop below
        std::lock_guard<std::mutex> lock(submit_mutex_);
        if (push_locked(item)) return true;
        // kTimeout still retries the push once (space may have appeared
        // between the wait expiring and the lock), then falls out.
        if (wait == SpaceWait::kTimeout) break;
      }
    }
    // Serialize outside submit_mutex_ — encoding is the CPU-heavy part and
    // must not stall concurrent real-time submitters.
    std::string bytes;
    try {
      bytes = spill_codec_.encode(item);
    } catch (const std::exception& e) {
      NC_LOG_WARN << "spill encode failed, wedge dropped: " << e.what();
      wedges_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    std::lock_guard<std::mutex> lock(submit_mutex_);
    // Late space beats disk; also re-checked here because the deadline wait
    // ran unlocked.
    if (push_locked(item)) return true;
    if (spill_closed_) {
      // finish() already sealed the tier: a spilled record would never be
      // replayed, so this is a drop, exactly like submit-after-close.
      wedges_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    try {
      // Appends run under submit_mutex_ — deliberately, although that puts
      // a disk write on the overflow path of concurrent submitters: the
      // append must be atomic with the spill_closed_ check above (a record
      // landing after finish()'s final drain sweep would be silently lost)
      // and with seq consumption (consumed only on success, so a failed
      // append leaves no gap for the ordered cursor to hang on).  It also
      // makes record order seq order, keeping replay oldest-first.  Only
      // the pre-encoded bytes are written here; the CPU-heavy encode ran
      // outside the lock.
      spill_->append(next_seq_, bytes);
    } catch (const util::SerializeError& e) {
      NC_LOG_WARN << "spill append failed, wedge dropped: " << e.what();
      wedges_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ++next_seq_;
    wedges_in_.fetch_add(1, std::memory_order_relaxed);
    wedges_spilled_.fetch_add(1, std::memory_order_relaxed);
    {
      // Notify under drainer_mutex_: an idle drainer waits indefinitely,
      // so this wakeup must not race past its pending-count check.
      std::lock_guard<std::mutex> drainer_lock(drainer_mutex_);
      drainer_cv_.notify_all();
    }
    return true;
  }

  /// True when the drainer should replay now: something is pending and
  /// either the pipeline is finishing or the intake has drained to half its
  /// capacity.
  bool should_replay_locked() const {  ///< caller holds drainer_mutex_
    return spill_->pending() > 0 &&
           (final_drain_ || intake_.size() <= intake_.capacity() / 2);
  }

  /// Spill drainer: with nothing pending it parks indefinitely (a spill
  /// append or finish() wakes it — both notify under drainer_mutex_, so
  /// the wakeup cannot slip between the pending check and the wait); with
  /// a backlog it polls on a 1 ms tick, because workers draining the
  /// intake past the low-water mark emit no push-side signal.  Exits once
  /// finish() has sealed the tier and the backlog is gone.
  void drainer_loop() {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(drainer_mutex_);
        if (final_drain_ && spill_->pending() == 0) return;
        if (!should_replay_locked()) {
          if (spill_->pending() == 0) {
            drainer_cv_.wait(lock, [&] {
              return final_drain_ || spill_->pending() > 0;
            });
          } else {
            drainer_cv_.wait_for(lock, std::chrono::milliseconds(1));
          }
          continue;
        }
      }
      replay_one();
    }
  }

  /// Re-inject the oldest spilled item into the intake under its original
  /// sequence number.  A record that fails to read back or decode is
  /// accounted like a transform failure — counted and, in ordered mode,
  /// skipped — so a corrupt spill can never wedge the emit cursor.
  void replay_one() {
    const auto rec = spill_->pop();
    if (!rec) return;
    if (!rec->ok) {
      NC_LOG_WARN << "spill record for item " << rec->seq
                  << " unreadable, counted as failed";
      fail_replayed(rec->seq);
      return;
    }
    In value;
    try {
      value = spill_codec_.decode(rec->payload);
    } catch (const std::exception& e) {
      NC_LOG_WARN << "spill decode failed for item " << rec->seq << ": "
                  << e.what();
      fail_replayed(rec->seq);
      return;
    }
    // The intake only closes after this thread is joined, so the wait can
    // fail only on a logic error upstream; treat it like a lost record
    // rather than hanging or leaking the seq.  A failed try_push leaves
    // `queued` intact, so the retry loop never re-reads or copies.
    Item queued{rec->seq, std::move(value)};
    while (!intake_.try_push(std::move(queued))) {
      if (!intake_.wait_for_space()) {
        fail_replayed(rec->seq);
        return;
      }
    }
    wedges_replayed_.fetch_add(1, std::memory_order_relaxed);
  }

  void fail_replayed(std::uint64_t seq) {
    wedges_failed_.fetch_add(1, std::memory_order_relaxed);
    skip_seqs({seq});
  }

  void enter_busy() {
    // busy_count_ mirrors busy_workers_ lock-free for the autoscale
    // controller, which must never contend on the workers' hot-path mutex.
    busy_count_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(busy_mutex_);
    if (busy_workers_++ == 0) busy_timer_.reset();
  }

  void exit_busy() {
    busy_count_.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(busy_mutex_);
    if (--busy_workers_ == 0) busy_s_ += busy_timer_.elapsed_s();
  }

  /// Park this worker until the live target includes its index again (or
  /// shutdown).
  void park_for_scale(std::size_t worker_index) {
    std::unique_lock<std::mutex> lock(scale_mutex_);
    scale_cv_.wait(lock, [&] {
      return scale_closing_.load(std::memory_order_relaxed) ||
             worker_index < live_target_.load(std::memory_order_relaxed);
    });
  }

  /// Elastic controller thread: the thin impure driver around the pure
  /// AutoscaleController — samples real counters every scale_interval_s
  /// and applies the returned target.  finish() joins this thread first,
  /// so scaling is quiescent before any teardown step.
  void controller_loop() {
    AutoscaleConfig cfg;
    cfg.min_workers = options_.min_workers;
    cfg.max_workers = options_.max_workers;
    cfg.window = options_.scale_window;
    cfg.cooldown = options_.scale_cooldown;
    AutoscaleController ctl(cfg, live_target_.load(std::memory_order_relaxed));
    const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(options_.scale_interval_s));
    std::int64_t spilled_seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(scale_mutex_);
        if (ctrl_cv_.wait_for(lock, interval, [&] {
              return scale_closing_.load(std::memory_order_relaxed);
            })) {
          return;
        }
      }
      AutoscaleSample sample;
      const double capacity = static_cast<double>(intake_.capacity());
      sample.depth_fraction =
          capacity > 0 ? static_cast<double>(intake_.size()) / capacity : 0.0;
      const double live =
          static_cast<double>(live_target_.load(std::memory_order_relaxed));
      sample.busy_fraction =
          live > 0
              ? static_cast<double>(busy_count_.load(std::memory_order_relaxed)) /
                    live
              : 0.0;
      // "Spilling" = the tier grew since last tick OR still holds a backlog
      // (replay pressure keeps the intake full even with no fresh spills).
      const std::int64_t spilled =
          wedges_spilled_.load(std::memory_order_relaxed);
      sample.spilling =
          spilled != spilled_seen || (spill_ && spill_->pending() > 0);
      spilled_seen = spilled;
      const std::size_t target = ctl.observe(sample);
      if (target != live_target_.load(std::memory_order_relaxed)) {
        set_live_workers(target, ctl.last_reason());
      }
    }
  }

  void emit_batch(const std::vector<std::uint64_t>& seqs,
                  std::vector<Out>&& outputs) {
    if (!options_.ordered) {
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        sink_(seqs[i], std::move(outputs[i]));
      }
      return;
    }
    std::unique_lock<std::mutex> lock(reorder_mutex_);
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      reorder_.put(seqs[i], std::move(outputs[i]));
    }
    reorder_.drain(lock, sink_);
  }

  /// Ordered mode: failed items are gaps that advance the cursor.
  void skip_seqs(const std::vector<std::uint64_t>& seqs) {
    if (!options_.ordered || seqs.empty()) return;
    std::unique_lock<std::mutex> lock(reorder_mutex_);
    for (const auto seq : seqs) reorder_.put(seq, std::nullopt);
    reorder_.drain(lock, sink_);
  }

  void worker_loop(std::size_t worker_index) {
    const bool pinned = worker_index < placement_.size() &&
                        util::pin_current_thread(placement_[worker_index].cpu);
    if (pinned) workers_pinned_.fetch_add(1, std::memory_order_relaxed);
    WorkerStats& ws = worker_stats_[worker_index];
    std::vector<Item> items;
    std::vector<std::uint64_t> seqs;
    std::vector<In> batch;
    items.reserve(options_.batch_size);
    seqs.reserve(options_.batch_size);
    batch.reserve(options_.batch_size);
    while (true) {
      // Elastic park point: a worker scaled out of the live set sleeps here
      // between batches (never mid-batch, so no output is ever stranded).
      // A worker blocked in pop_batch when the target drops processes at
      // most one more batch before landing back here — self-correcting.
      if (worker_index >= live_target_.load(std::memory_order_acquire) &&
          !scale_closing_.load(std::memory_order_acquire)) {
        park_for_scale(worker_index);
        continue;
      }
      items.clear();
      seqs.clear();
      batch.clear();
      bool stolen = false;
      // Adaptive batching happens inside the intake, on the depth observed
      // at pop time: a fair share of the backlog per live worker, clamped to
      // [1, batch_size] — full batches when backed up (throughput), single
      // items on a trickle (latency, and the trickle spreads across
      // workers instead of one grabbing it all).
      if (intake_.pop_batch(worker_index, items, options_.batch_size,
                            live_target_.load(std::memory_order_relaxed),
                            &stolen) == 0) {
        break;
      }
      if (stolen) ++ws.batches_stolen;
      // Team width for this batch, from the live count as it stands now
      // (the pop may have blocked across a scale change).  A pinned worker
      // stays at 1: a team it forked would inherit its one-CPU mask.
      const auto live =
          static_cast<int>(live_target_.load(std::memory_order_relaxed));
      util::set_num_threads(pinned ? 1 : std::max(1, thread_budget_ / live));
      for (auto& item : items) {
        seqs.push_back(item.seq);
        batch.push_back(std::move(item.value));
      }
      enter_busy();
      // Time only the transform+sink work: counting from thread start would
      // fold intake-wait idle into active time and deflate throughput_wps().
      util::Timer timer;
      std::vector<Out> outputs;
      bool transform_ok = true;
      try {
        outputs = transform_(std::move(batch));
        if (outputs.size() != seqs.size()) {
          throw std::runtime_error("batch transform returned " +
                                   std::to_string(outputs.size()) +
                                   " outputs for " +
                                   std::to_string(seqs.size()) + " items");
        }
      } catch (const std::exception& e) {
        // A poisoned batch must not kill the worker (a dead worker turns
        // blocking submits into a deadlock) nor stall the ordered sink.
        transform_ok = false;
        NC_LOG_WARN << "stream worker " << worker_index
                    << ": dropping batch of " << seqs.size()
                    << " items: " << e.what();
        wedges_failed_.fetch_add(static_cast<std::int64_t>(seqs.size()),
                                 std::memory_order_relaxed);
        skip_seqs(seqs);
      }
      if (transform_ok) {
        // The items are processed whatever the sink does with them, so the
        // stats update precedes emission; a sink failure is logged but does
        // not land in wedges_failed (reserved for transform errors).
        std::int64_t bytes = 0;
        if (payload_bytes_) {
          for (const auto& out : outputs) bytes += payload_bytes_(out);
        }
        ws.wedges_compressed += static_cast<std::int64_t>(outputs.size());
        ws.payload_bytes += bytes;
        ++ws.batches;
        try {
          emit_batch(seqs, std::move(outputs));
        } catch (const std::exception& e) {
          // Only the unordered path throws here (the ordered drain swallows
          // sink errors per item); the rest of this batch is lost downstream.
          NC_LOG_WARN << "stream worker " << worker_index << ": sink error, "
                      << seqs.size() << " processed items may be lost "
                      << "downstream: " << e.what();
        }
      }
      ws.active_s += timer.elapsed_s();
      exit_busy();
    }
  }

  StreamOptions options_;
  /// Core budget shared by the workers: the constructing thread's OpenMP
  /// team width (OMP_NUM_THREADS, or its util::set_num_threads).
  const int thread_budget_ = util::num_threads();
  BatchFn transform_;
  ByteCounter payload_bytes_;
  SeqSink sink_;
  SpillCodec spill_codec_;
  ShardedQueue<Item> intake_;

  // Intake sequencing: the mutex makes seq numbers match submission order.
  std::mutex submit_mutex_;
  std::uint64_t next_seq_ = 0;
  std::atomic<std::int64_t> wedges_in_{0};
  std::atomic<std::int64_t> wedges_dropped_{0};
  std::atomic<std::int64_t> wedges_failed_{0};

  // Spill tier (null when disabled).  spill_closed_ is guarded by
  // submit_mutex_ (sealed by finish() before the final drain, mutually
  // exclusive with every append); final_drain_ by drainer_mutex_.
  std::unique_ptr<SpillLog> spill_;
  bool spill_closed_ = false;
  std::mutex drainer_mutex_;
  std::condition_variable drainer_cv_;
  bool final_drain_ = false;
  std::thread drainer_;
  std::atomic<std::int64_t> wedges_spilled_{0};
  std::atomic<std::int64_t> wedges_replayed_{0};

  // Busy-interval union: a clock that runs while >=1 worker is busy.
  std::mutex busy_mutex_;
  int busy_workers_ = 0;
  util::Timer busy_timer_;
  double busy_s_ = 0.0;

  // Ordered mode's emit cursor, guarded by reorder_mutex_.
  std::mutex reorder_mutex_;
  Reorderer<Out> reorder_;

  std::vector<WorkerStats> worker_stats_;
  std::vector<std::thread> workers_;

  /// Advance the live-worker time integral to now (caller holds
  /// scale_mutex_).  Called on every target change and once at finish, so
  /// avg_live_workers is exact piecewise-constant integration.
  void integrate_live_locked() {
    const double now = lifetime_.elapsed_s();
    live_integral_ +=
        static_cast<double>(live_target_.load(std::memory_order_relaxed)) *
        (now - live_mark_s_);
    live_mark_s_ = now;
  }

  // Elastic pool.  In a static pool live_target_ == max_workers forever:
  // the park branch never triggers, no controller thread runs, and the
  // machinery below is inert.  live_target_ is atomic so workers poll it
  // lock-free; the event counters, hwm/lwm and the time integral are
  // guarded by scale_mutex_.
  std::atomic<std::size_t> live_target_{options_.n_workers};
  std::atomic<bool> scale_closing_{false};
  std::mutex scale_mutex_;
  std::condition_variable scale_cv_;  ///< parks surplus workers
  std::condition_variable ctrl_cv_;   ///< controller interval / shutdown
  std::size_t workers_hwm_ = options_.n_workers;
  std::size_t workers_lwm_ = options_.n_workers;
  std::int64_t scale_up_events_ = 0;
  std::int64_t scale_down_events_ = 0;
  double live_integral_ = 0.0;  ///< ∫ live target dt since construction
  double live_mark_s_ = 0.0;    ///< lifetime_ time of the last integration
  util::Timer lifetime_;        ///< construction-relative clock (events, avg)
  std::atomic<int> busy_count_{0};  ///< lock-free mirror of busy_workers_
  std::vector<util::CpuInfo> placement_;  ///< per-slot core pin (may be empty)
  std::atomic<std::int64_t> workers_pinned_{0};
  std::thread controller_;

  std::atomic<bool> finished_{false};
  std::mutex finish_mutex_;
  StreamStats merged_;  ///< worker totals, filled once on first finish()
};

}  // namespace nc::codec
