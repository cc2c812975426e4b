#include "codec/service.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "codec/reorderer.hpp"
#include "codec/spill.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"

namespace nc::codec {

/// All mutable per-session state lives behind one mutex: the staging queue
/// the scheduler drains, the sequence space, the emit cursor the pipeline
/// sink advances, and the admission controller's knobs (rung, shedding).
struct CompressionService::Session {
  Session(SessionId sid, SessionOptions o, const AdmissionConfig& cfg)
      : id(sid), opt(std::move(o)), admission(cfg) {}

  const SessionId id;
  SessionOptions opt;
  AdmissionController admission;

  std::mutex mutex;
  std::condition_variable space_cv;  ///< staging space / shed / close wakeups
  std::condition_variable done_cv;   ///< close_session drain

  struct Staged {
    std::uint64_t seq = 0;
    core::Tensor wedge;
  };
  std::deque<Staged> staging;
  std::uint64_t next_seq = 0;  ///< session sequence space (submit order)
  /// Ordered emission; nullopt = shed/failed gap.
  Reorderer<WedgeEnvelope> reorder;

  std::size_t rung = 0;    ///< current ladder position
  bool shedding = false;   ///< admission latched into shedding
  bool closed = false;     ///< no further submits accepted
  std::size_t deficit = 0; ///< DRR credit carried across rounds

  SessionStats stats;

  SessionStats snapshot_locked() const {
    SessionStats out = stats;
    out.rung = rung;
    out.codec = opt.ladder[rung]->name();
    return out;
  }
  /// Everything submitted has been scheduled, compressed (or gapped) and
  /// emitted — the close_session() wait predicate.
  bool drained_locked() const {
    return staging.empty() && reorder.done(next_seq);
  }
};

StreamOptions CompressionService::pipeline_options(
    const ServiceOptions& options) {
  StreamOptions opt = options.pipeline;
  // The service owns ordering (per-session cursors); a globally ordered
  // pipeline would serialize unrelated sessions behind each other.
  opt.ordered = false;
  return opt;
}

CompressionService::CompressionService(const ServiceOptions& options)
    : options_(options),
      pipeline_(
          pipeline_options(options),
          [](std::vector<ServiceItem>&& batch) {
            return run_batch(std::move(batch));
          },
          [](const ServiceOut& out) {
            return out.ok ? out.envelope.payload_bytes() : 0;
          },
          [this](std::uint64_t, ServiceOut&& out) { deliver(std::move(out)); },
          Pipeline::SpillCodec{
              [this](const ServiceItem& item) { return encode_spill(item); },
              [this](const std::string& bytes) { return decode_spill(bytes); }}) {
  if (options_.drr_quantum == 0) options_.drr_quantum = 1;
  scheduler_ = std::thread([this] { scheduler_loop(); });
  if (options_.admission_interval_s > 0) {
    admission_thread_ = std::thread([this] { admission_loop(); });
  }
}

CompressionService::~CompressionService() { (void)finish(); }

SessionId CompressionService::open_session(SessionOptions options) {
  if (options.ladder.empty()) {
    throw std::invalid_argument(
        "CompressionService: session ladder must name at least one codec");
  }
  for (const auto* codec : options.ladder) {
    if (codec == nullptr) {
      throw std::invalid_argument(
          "CompressionService: null codec in session ladder");
    }
  }
  if (options.queue_capacity == 0) options.queue_capacity = 1;
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const SessionId id = next_session_id_++;
  sessions_.emplace(id, std::make_shared<Session>(id, std::move(options),
                                                  options_.admission));
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::shared_ptr<CompressionService::Session> CompressionService::find_session(
    SessionId id) const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto it = sessions_.find(id);
  return it != sessions_.end() ? it->second : nullptr;
}

std::vector<std::shared_ptr<CompressionService::Session>>
CompressionService::session_round() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  std::vector<std::shared_ptr<Session>> round;
  round.reserve(sessions_.size());
  // Map iteration = ascending id: rounds visit sessions in a deterministic
  // order, which the DRR quanta then keep fair.
  for (const auto& [id, session] : sessions_) round.push_back(session);
  return round;
}

std::size_t CompressionService::open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

SubmitResult CompressionService::submit(SessionId id, core::Tensor wedge) {
  return submit_impl(id, std::move(wedge), /*blocking=*/true);
}

SubmitResult CompressionService::try_submit(SessionId id, core::Tensor wedge) {
  return submit_impl(id, std::move(wedge), /*blocking=*/false);
}

SubmitResult CompressionService::submit_impl(SessionId id, core::Tensor&& wedge,
                                             bool blocking) {
  const auto session = find_session(id);
  if (!session) return SubmitResult::kClosed;
  std::unique_lock<std::mutex> lock(session->mutex);
  while (true) {
    if (session->closed || closing_.load(std::memory_order_acquire)) {
      return SubmitResult::kClosed;
    }
    if (session->shedding) {
      // Predictable early drop: the seq is consumed so ordered emission is
      // preserved across the gap, the drop is counted, nothing is queued.
      ++session->stats.submitted;
      ++session->stats.shed;
      wedges_shed_.fetch_add(1, std::memory_order_relaxed);
      session->reorder.put(session->next_seq++, std::nullopt);
      emit_ready(session, lock);
      return SubmitResult::kShed;
    }
    if (session->staging.size() < session->opt.queue_capacity) {
      ++session->stats.submitted;
      session->staging.push_back(
          Session::Staged{session->next_seq++, std::move(wedge)});
      session->stats.queue_depth_hwm =
          std::max(session->stats.queue_depth_hwm,
                   static_cast<std::int64_t>(session->staging.size()));
      lock.unlock();
      sched_cv_.notify_one();
      return SubmitResult::kAccepted;
    }
    if (!blocking) return SubmitResult::kQueueFull;
    // Bounded by this session's own queue: backpressure here never depends
    // on other sessions' backlogs (their staging is theirs).
    session->space_cv.wait(lock);
  }
}

void CompressionService::deliver(ServiceOut&& out) {
  const std::shared_ptr<Session> session = std::move(out.session);
  if (!session) return;
  std::unique_lock<std::mutex> lock(session->mutex);
  if (out.ok) {
    ++session->stats.compressed;
    session->stats.payload_bytes += out.envelope.payload_bytes();
    session->reorder.put(out.seq, std::move(out.envelope));
  } else {
    ++session->stats.failed;
    session->reorder.put(out.seq, std::nullopt);
  }
  emit_ready(session, lock);
}

void CompressionService::emit_ready(const std::shared_ptr<Session>& session,
                                    std::unique_lock<std::mutex>& lock) {
  session->reorder.drain(lock, [&](std::uint64_t seq, WedgeEnvelope&& env) {
    if (session->opt.sink) session->opt.sink(seq, std::move(env));
  });
  session->done_cv.notify_all();
}

void CompressionService::scheduler_loop() {
  std::vector<ServiceItem> items;
  while (true) {
    std::size_t moved = 0;
    for (const auto& session : session_round()) {
      items.clear();
      {
        std::lock_guard<std::mutex> lock(session->mutex);
        if (session->staging.empty()) {
          session->deficit = 0;  // DRR: an empty queue carries no credit
          continue;
        }
        session->deficit += options_.drr_quantum;
        const std::size_t take =
            std::min(session->deficit, session->staging.size());
        // The codec is resolved at schedule time: an admission hop applies
        // to later-scheduled wedges only, never to in-flight work.
        const WedgeCodec* codec = session->opt.ladder[session->rung];
        for (std::size_t i = 0; i < take; ++i) {
          auto& staged = session->staging.front();
          items.push_back(ServiceItem{session, staged.seq, codec,
                                      std::move(staged.wedge), false});
          session->staging.pop_front();
        }
        session->deficit -= take;
        if (session->staging.empty()) session->deficit = 0;
      }
      session->space_cv.notify_all();
      // Blocking submits into the shared pool: its backpressure stalls the
      // scheduler — all sessions equally, which is exactly the fairness
      // story — and with a spill tier configured the stall is bounded by
      // spill_deadline_s (overflow lands on disk instead).
      for (auto& item : items) pipeline_.submit(std::move(item));
      moved += items.size();
    }
    wedges_scheduled_.fetch_add(static_cast<std::int64_t>(moved),
                                std::memory_order_relaxed);
    if (moved > 0) continue;
    std::unique_lock<std::mutex> lock(sched_mutex_);
    if (sched_closing_) {
      // Final sweep: finish()'s closing_ barrier guarantees no new submits,
      // so once every staging queue reads empty the intake side is done.
      bool empty = true;
      for (const auto& session : session_round()) {
        std::lock_guard<std::mutex> slock(session->mutex);
        if (!session->staging.empty()) {
          empty = false;
          break;
        }
      }
      if (empty) return;
      continue;
    }
    sched_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void CompressionService::admission_loop() {
  const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(options_.admission_interval_s));
  while (true) {
    {
      std::unique_lock<std::mutex> lock(admission_mutex_);
      if (admission_cv_.wait_for(lock, interval,
                                 [&] { return admission_closing_; })) {
        return;
      }
    }
    admission_pass();
  }
}

void CompressionService::admission_tick() { admission_pass(); }

void CompressionService::admission_pass() {
  // Spill pressure is service-global: the shared tier grew since the last
  // pass, or still holds a backlog.  Every session's sample sees it; only
  // the deep ones react (AdmissionConfig::spill_depth).
  const std::int64_t spilled = pipeline_.wedges_spilled();
  const bool spilling = spilled_seen_.exchange(spilled) != spilled ||
                        pipeline_.spill_pending() > 0;
  for (const auto& session : session_round()) {
    std::lock_guard<std::mutex> lock(session->mutex);
    if (session->closed) continue;
    AdmissionSample sample;
    sample.depth_fraction =
        static_cast<double>(session->staging.size()) /
        static_cast<double>(session->opt.queue_capacity);
    sample.spilling = spilling;
    sample.rungs_left = session->opt.ladder.size() - 1 - session->rung;
    sample.rungs_used = session->rung;
    switch (session->admission.observe(sample)) {
      case AdmissionDecision::kDegrade:
        ++session->rung;
        ++session->stats.degradations;
        degradations_.fetch_add(1, std::memory_order_relaxed);
        NC_LOG_INFO << "session " << session->id << " degraded to codec '"
                    << session->opt.ladder[session->rung]->name() << "' (rung "
                    << session->rung << ")";
        break;
      case AdmissionDecision::kShed:
        session->shedding = true;
        NC_LOG_WARN << "session " << session->id
                    << " shedding (ladder exhausted at '"
                    << session->opt.ladder[session->rung]->name() << "')";
        // Blocked submitters shed immediately instead of waiting for space.
        session->space_cv.notify_all();
        break;
      case AdmissionDecision::kStopShed:
        session->shedding = false;
        NC_LOG_INFO << "session " << session->id << " stopped shedding";
        break;
      case AdmissionDecision::kRecover:
        --session->rung;
        ++session->stats.recoveries;
        recoveries_.fetch_add(1, std::memory_order_relaxed);
        NC_LOG_INFO << "session " << session->id << " recovered to codec '"
                    << session->opt.ladder[session->rung]->name() << "' (rung "
                    << session->rung << ")";
        break;
      case AdmissionDecision::kHold:
        break;
    }
  }
}

SessionStats CompressionService::close_session(SessionId id) {
  const auto session = find_session(id);
  if (!session) {
    throw std::invalid_argument("CompressionService: unknown session " +
                                std::to_string(id));
  }
  SessionStats stats;
  {
    std::unique_lock<std::mutex> lock(session->mutex);
    session->closed = true;
    session->space_cv.notify_all();  // blocked submits wake with kClosed
    sched_cv_.notify_one();          // schedule whatever is still staged
    session->done_cv.wait(lock, [&] { return session->drained_locked(); });
    stats = session->snapshot_locked();
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions_.erase(id);
  }
  return stats;
}

SessionStats CompressionService::session_stats(SessionId id) const {
  const auto session = find_session(id);
  if (!session) {
    throw std::invalid_argument("CompressionService: unknown session " +
                                std::to_string(id));
  }
  std::lock_guard<std::mutex> lock(session->mutex);
  return session->snapshot_locked();
}

ServiceStats CompressionService::finish() {
  std::lock_guard<std::mutex> finish_lock(finish_mutex_);
  if (!finished_.exchange(true)) {
    closing_.store(true, std::memory_order_release);
    // Barrier: a submit that read closing_ == false is still inside its
    // session mutex; taking each one once flushes those in-flight pushes,
    // so the scheduler's final sweep observes the complete staging state.
    for (const auto& session : session_round()) {
      std::lock_guard<std::mutex> lock(session->mutex);
      session->space_cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(admission_mutex_);
      admission_closing_ = true;
    }
    admission_cv_.notify_all();
    if (admission_thread_.joinable()) admission_thread_.join();
    {
      std::lock_guard<std::mutex> lock(sched_mutex_);
      sched_closing_ = true;
    }
    sched_cv_.notify_all();
    if (scheduler_.joinable()) scheduler_.join();
    // Every staged wedge is in the pipeline; finishing it drains the spill
    // tier and delivers every output, completing all session cursors.
    final_.pipeline = pipeline_.finish();
    final_.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
    final_.wedges_scheduled = wedges_scheduled_.load(std::memory_order_relaxed);
    final_.wedges_shed = wedges_shed_.load(std::memory_order_relaxed);
    final_.degradations = degradations_.load(std::memory_order_relaxed);
    final_.recoveries = recoveries_.load(std::memory_order_relaxed);
  }
  return final_;
}

std::vector<CompressionService::ServiceOut> CompressionService::run_batch(
    std::vector<ServiceItem>&& batch) {
  std::vector<ServiceOut> out(batch.size());
  // Bucket by codec, preserving per-bucket input order.  std::map keys on
  // the pointer — fine, grouping needs identity, not a stable order.
  std::map<const WedgeCodec*, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out[i].session = std::move(batch[i].session);
    out[i].seq = batch[i].seq;
    if (!batch[i].poisoned && batch[i].codec != nullptr) {
      groups[batch[i].codec].push_back(i);
    }
  }
  for (auto& [codec, idx] : groups) {
    std::vector<core::Tensor> wedges;
    wedges.reserve(idx.size());
    for (const auto i : idx) wedges.push_back(std::move(batch[i].wedge));
    try {
      auto envelopes = codec->compress_batch(wedges);
      if (envelopes.size() != idx.size()) {
        throw std::runtime_error("codec returned " +
                                 std::to_string(envelopes.size()) +
                                 " envelopes for " +
                                 std::to_string(idx.size()) + " wedges");
      }
      for (std::size_t j = 0; j < idx.size(); ++j) {
        out[idx[j]].envelope = std::move(envelopes[j]);
        out[idx[j]].ok = true;
      }
    } catch (const std::exception& e) {
      // Contained per codec group: these wedges land in their sessions'
      // `failed` counts (ok stays false), the rest of the batch survives.
      NC_LOG_WARN << "compression service: " << idx.size()
                  << " wedge(s) failed in codec '" << codec->name()
                  << "': " << e.what();
    }
  }
  return out;
}

std::string CompressionService::encode_spill(const ServiceItem& item) const {
  std::ostringstream os;
  util::write_u64(os, item.session ? item.session->id : 0);
  util::write_u64(os, item.seq);
  // The codec pointer cannot survive the disk roundtrip; the rung index
  // can, and the ladder it indexes is immutable for the session's life.
  std::uint32_t rung = 0;
  if (item.session) {
    const auto& ladder = item.session->opt.ladder;
    for (std::size_t r = 0; r < ladder.size(); ++r) {
      if (ladder[r] == item.codec) {
        rung = static_cast<std::uint32_t>(r);
        break;
      }
    }
  }
  util::write_u32(os, rung);
  write_spilled_wedge(os, item.wedge);
  return os.str();
}

CompressionService::ServiceItem CompressionService::decode_spill(
    const std::string& bytes) const {
  std::istringstream is(bytes);
  const std::uint64_t sid = util::read_u64(is);
  const std::uint64_t seq = util::read_u64(is);
  const std::uint32_t rung = util::read_u32(is);
  const auto session = find_session(sid);
  if (!session) {
    // Sessions are only erased after their cursor fully drains (which needs
    // every spilled wedge back), so an unknown id means a corrupt header.
    throw util::SerializeError("spilled wedge names unknown session " +
                               std::to_string(sid));
  }
  ServiceItem item;
  item.session = session;
  item.seq = seq;
  {
    std::lock_guard<std::mutex> lock(session->mutex);
    const auto& ladder = session->opt.ladder;
    item.codec = ladder[std::min<std::size_t>(rung, ladder.size() - 1)];
  }
  try {
    item.wedge = read_spilled_wedge(is);
  } catch (const util::SerializeError& e) {
    // The routing header parsed, so the session cursor can still advance:
    // poison the item and let the transform fail it (counted per session)
    // instead of throwing the whole record away at the pipeline layer.
    NC_LOG_WARN << "spilled wedge " << seq << " of session " << sid
                << " unreadable, failing it: " << e.what();
    item.poisoned = true;
  }
  return item;
}

}  // namespace nc::codec
