/// \file service.hpp
/// \brief Multi-stream compression service: many client sessions multiplexed
///        over one shared elastic StreamPipeline and one set of model
///        weights.
///
/// Everything below this layer is "a pipeline": one intake, one global
/// sequence space, one sink.  The deployment the paper targets is "a
/// system" — thousands of concurrent client streams (one per fibre bundle /
/// analysis consumer) sharing a worker pool sized for the aggregate rate,
/// not per client.  `CompressionService` is that layer:
///
///   open_session(ladder, sink) -> submit(wedge)* -> close_session()
///
///  * **Per-session sequence spaces + ordered emission.**  Every session
///    numbers its accepted submits 0,1,2,... independently, and has its own
///    emit cursor (a `Reorderer`, reorderer.hpp — the same one an ordered
///    StreamPipeline uses), layered over the shared *unordered* pipeline
///    (global ordering across unrelated clients would be a false
///    dependency).  The one ordering rule: a session's sink calls never
///    overlap and see strictly increasing seqs, and shed and failed wedges
///    consume their sequence number as gaps that emit nothing.
///  * **Fair scheduling.**  Submits land in a bounded per-session staging
///    queue; a deficit-round-robin scheduler moves up to `drr_quantum`
///    wedges per session per round into the shared pipeline, so one
///    firehose client saturates its own staging queue (and only then its
///    own admission ladder) instead of starving every polite session at a
///    shared intake.
///  * **Degradation-ladder admission.**  Each session brings a codec
///    *ladder* (e.g. bcae-int8 -> zfp, any registered WedgeCodec) — legal
///    mid-stream because every codec speaks WedgeEnvelope.  A pure
///    per-session AdmissionController (admission.hpp) watches staging depth
///    and shared-pipeline spill pressure: under sustained overload the
///    session hops one rung down (cheaper codec, ~100x on the measured
///    bcae->zfp hop), and only with the ladder exhausted does it *shed* —
///    early, counted, per-session drops, instead of spilling blindly until
///    `spill_max_bytes` kills the whole process.
///
/// Concurrency/contract notes:
///  * submit/try_submit are safe from any number of client threads (one or
///    more per session).  Per-session sinks are never invoked concurrently
///    with themselves; sinks of different sessions may run concurrently.
///    Sinks run on pool workers, the spill drainer or the scheduler (the
///    latter two for lost wedges), so a sink must not call back into the
///    service for its own session, nor block on a submit.
///  * Codec hops apply at *schedule* time: wedges already handed to the
///    pipeline finish under the codec they were scheduled with, so a hop
///    never corrupts in-flight work.  Each emitted envelope carries its
///    codec id, so mixed-rung streams decode normally.
///  * The shared pipeline runs unordered (the service owns ordering);
///    `ServiceOptions::pipeline.ordered` is ignored.  The spill tier and
///    elastic pool compose unchanged; a spilled wedge is the raw-wedge
///    record StreamCompressor writes (spill.hpp), with no routing header.
///  * **One route table.**  Each scheduled wedge's pipeline seq maps to its
///    session, session seq and codec.  Every outcome — an envelope, a codec
///    failure, a pipeline loss (the pipeline's `on_lost`: failed transform,
///    unreadable or undecodable spill record) or a refused spill — is
///    settled through that table into its session's cursor, so
///    close_session() always drains.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codec/admission.hpp"
#include "codec/stream_pipeline.hpp"
#include "codec/wedge_codec.hpp"
#include "core/tensor.hpp"

namespace nc::codec {

using SessionId = std::uint64_t;

/// Per-session configuration, fixed at open_session.
struct SessionOptions {
  /// Codec degradation ladder, preferred first (rung 0).  Must be non-empty;
  /// every codec is borrowed and must outlive the session.  A single-entry
  /// ladder never degrades — overload goes straight to shedding.
  std::vector<const WedgeCodec*> ladder;
  /// Staging-queue bound: wedges accepted but not yet scheduled into the
  /// shared pipeline.  This is the depth the admission controller watches.
  std::size_t queue_capacity = 64;
  /// Ordered per-session delivery: called with the session sequence number
  /// and the compressed envelope, in strictly increasing seq order (gaps =
  /// shed/failed wedges).  May be empty (stats-only session).
  std::function<void(std::uint64_t, WedgeEnvelope&&)> sink;
};

/// Outcome of one submit.
enum class SubmitResult {
  kAccepted,   ///< staged; will be compressed and emitted in seq order
  kShed,       ///< admission is shedding this session; wedge dropped, counted
  kQueueFull,  ///< try_submit only: staging queue full right now
  kClosed,     ///< session closed / service finishing; wedge not accepted
};

/// Per-session accounting, snapshot at close_session (or session_stats).
struct SessionStats {
  std::int64_t submitted = 0;   ///< accepted + shed (seq space consumed)
  std::int64_t compressed = 0;  ///< envelopes delivered to the sink
  std::int64_t shed = 0;        ///< dropped by admission (counted gaps)
  /// Lost after acceptance (counted gaps): a codec error, a refused spill,
  /// an unreadable or undecodable spill record, or a failed transform.
  /// At close, submitted == compressed + shed + failed.
  std::int64_t failed = 0;
  std::int64_t payload_bytes = 0;
  std::int64_t degradations = 0;  ///< ladder hops down
  std::int64_t recoveries = 0;    ///< ladder hops back up
  std::size_t rung = 0;           ///< current ladder position
  std::string codec;              ///< current codec name
  std::int64_t queue_depth_hwm = 0;  ///< deepest the staging queue ever got
};

/// Service-wide configuration.
struct ServiceOptions {
  /// Shared worker-pool configuration (workers, intake, batch, spill tier,
  /// elastic autoscaling).  `ordered` is forced off — ordering is
  /// per-session, owned by the service.
  StreamOptions pipeline;
  /// Deficit-round-robin quantum: wedges one session may move into the
  /// shared pipeline per scheduler round while others wait.
  std::size_t drr_quantum = 8;
  /// Admission sampling period.  0 = manual mode: no admission thread runs
  /// and ticks are driven via admission_tick() (deterministic tests).
  double admission_interval_s = 0.005;
  /// Per-session admission policy knobs (admission.hpp).
  AdmissionConfig admission;
};

/// Service-wide totals, filled by finish().
struct ServiceStats {
  std::int64_t sessions_opened = 0;
  std::int64_t wedges_scheduled = 0;  ///< moved from staging into the pipeline
  std::int64_t wedges_shed = 0;       ///< across all sessions
  std::int64_t degradations = 0;      ///< ladder hops down, all sessions
  std::int64_t recoveries = 0;        ///< ladder hops up, all sessions
  StreamStats pipeline;               ///< the shared pool's own accounting
};

/// The session-multiplexing compression service (see file comment).
class CompressionService {
 public:
  explicit CompressionService(const ServiceOptions& options);
  ~CompressionService();

  CompressionService(const CompressionService&) = delete;
  CompressionService& operator=(const CompressionService&) = delete;

  /// Register a new session.  Throws std::invalid_argument on an empty (or
  /// null-holding) ladder.  Safe from any thread, including while other
  /// sessions are streaming.
  SessionId open_session(SessionOptions options);

  /// Blocking submit: waits for staging space (bounded by the session's own
  /// queue, never by other sessions' backlogs), unless the session is
  /// shedding or closed — those return immediately.
  SubmitResult submit(SessionId id, core::Tensor wedge);
  /// Non-blocking submit: a full staging queue returns kQueueFull.
  SubmitResult try_submit(SessionId id, core::Tensor wedge);

  /// Seal the session, drain everything it has in flight (staging, pipeline,
  /// reorder cursor) and return its final stats.  Blocking submits wake with
  /// kClosed.  Throws std::invalid_argument on an unknown id.
  SessionStats close_session(SessionId id);

  /// Point-in-time snapshot of a live session's stats (monitoring).
  SessionStats session_stats(SessionId id) const;

  /// One manual admission pass over every open session (admission_interval_s
  /// == 0).  Deterministic: sessions are visited in id order.  Safe to call
  /// from any thread, also from several at once.
  void admission_tick();

  /// Seal the whole service: stop admitting, schedule every staged wedge,
  /// drain the shared pipeline, join all threads.  Idempotent; sessions not
  /// yet closed can still be close_session()'d afterwards (their cursors are
  /// complete by then).
  ServiceStats finish();

  const ServiceOptions& options() const { return options_; }
  /// Sessions currently open (opened - closed).
  std::size_t open_sessions() const;

 private:
  struct Session;

  /// One wedge in flight through the shared pipeline; its owner is in the
  /// route table under the item's pipeline seq.
  struct ServiceItem {
    const WedgeCodec* codec = nullptr;
    core::Tensor wedge;
  };
  /// Pipeline output: nullopt = the wedge's codec group threw.
  using Pipeline = StreamPipeline<ServiceItem, std::optional<WedgeEnvelope>>;
  /// Owner of one pipeline seq.
  struct Route {
    std::shared_ptr<Session> session;
    std::uint64_t seq = 0;  ///< session seq
    const WedgeCodec* codec = nullptr;
  };

  static StreamOptions pipeline_options(const ServiceOptions& options);

  /// The shared pipeline's batch transform: groups a mixed-session batch by
  /// codec and runs each group through compress_batch; a group that throws
  /// yields nullopt outputs, so the rest of the batch survives.
  static std::vector<std::optional<WedgeEnvelope>> run_batch(
      std::vector<ServiceItem>&& batch);

  std::shared_ptr<Session> find_session(SessionId id) const;
  SubmitResult submit_impl(SessionId id, core::Tensor&& wedge, bool blocking);
  /// Sorted snapshot of the open sessions (scheduler / admission rounds).
  std::vector<std::shared_ptr<Session>> session_round() const;

  /// The one outcome path: take `seq`'s route out of the table, count the
  /// outcome (nullopt = failed) in its session and advance that cursor.
  void settle(std::uint64_t seq, std::optional<WedgeEnvelope> out);
  /// Drain the session's ready prefix through its sink (Reorderer::drain:
  /// unlocked around each call, one drainer at a time) and wake
  /// close_session().
  static void emit_ready(const std::shared_ptr<Session>& session,
                         std::unique_lock<std::mutex>& lock);

  void scheduler_loop();
  void admission_loop();
  void admission_pass();

  /// Spill replay: the raw wedge back, under the codec its route names.
  ServiceItem decode_spill(std::uint64_t seq, const std::string& bytes) const;

  ServiceOptions options_;

  mutable std::mutex sessions_mutex_;
  std::map<SessionId, std::shared_ptr<Session>> sessions_;
  SessionId next_session_id_ = 1;

  std::atomic<std::int64_t> sessions_opened_{0};
  std::atomic<std::int64_t> wedges_scheduled_{0};
  std::atomic<std::int64_t> wedges_shed_{0};
  std::atomic<std::int64_t> degradations_{0};
  std::atomic<std::int64_t> recoveries_{0};

  /// Service-wide seal.  Checked under each session's mutex; finish()
  /// flips it and then takes every session mutex once (a barrier flushing
  /// in-flight submits) before the scheduler's final sweep.
  std::atomic<bool> closing_{false};

  std::mutex sched_mutex_;
  std::condition_variable sched_cv_;
  bool sched_closing_ = false;

  std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  bool admission_closing_ = false;
  /// wedges_spilled() at the last admission pass; exchanged by each pass,
  /// which may run on any thread (admission_tick()).
  std::atomic<std::int64_t> spilled_seen_{0};

  /// Pipeline seq -> owner.  The scheduler is the pipeline's only producer
  /// and the pipeline consumes a seq only for an accepted item, so the
  /// scheduler registers each wedge under the pipeline's next seq *before*
  /// submitting it; a refused submit is settled as lost and its seq reused
  /// for the next wedge.  Never held together with a session mutex.
  mutable std::mutex routes_mutex_;
  std::unordered_map<std::uint64_t, Route> routes_;

  Pipeline pipeline_;  ///< after the state its callbacks touch
  std::thread scheduler_;
  std::thread admission_thread_;

  std::atomic<bool> finished_{false};
  std::mutex finish_mutex_;
  ServiceStats final_;
};

}  // namespace nc::codec
