/// \file test_service.cpp
/// \brief The multi-stream compression service: session multiplexing over
///        one shared pipeline, per-session ordered emission, DRR fairness,
///        and degradation-ladder admission.
///
/// Determinism strategy: admission runs in manual mode (admission_interval_s
/// = 0, driven by admission_tick()), and overload is created with a *gated*
/// codec that blocks the shared pool's single worker on a latch — so staging
/// backs up for certain, not probabilistically.  The scheduler drains
/// staging concurrently with the fill loops, so overload tests use a
/// fill-then-tick loop (refill, tick, check) instead of assuming one fill
/// leaves the queue exactly full.  The concurrency tests (finish /
/// close_session racing in-flight submits) and the seeded model at the
/// bottom run under TSan in CI via the suite's `tsan` label.  Tests that
/// could hang wait on close_session() and finish() under a deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bcae/model.hpp"
#include "codec/service.hpp"
#include "codec/spill.hpp"
#include "codec/wedge_codec.hpp"
#include "tests/stream_test_utils.hpp"

namespace {

namespace fs = std::filesystem;
using nc::codec::CompressionService;
using nc::codec::ServiceOptions;
using nc::codec::SessionId;
using nc::codec::SessionOptions;
using nc::codec::SessionStats;
using nc::codec::SubmitResult;
using nc::codec::WedgeCodec;
using nc::codec::WedgeEnvelope;
using nc::core::Tensor;
using nc::testutil::raw_wedge;
using nc::testutil::spin_until;
using nc::testutil::StallLatch;

/// The fast, deterministic, model-free codec every test rung bottoms out on.
const WedgeCodec& zfp_codec() {
  static nc::bcae::BcaeModel model = nc::bcae::make_bcae_ht(81);
  static const std::unique_ptr<WedgeCodec> codec =
      nc::codec::make_wedge_codec("zfp", model);
  return *codec;
}

/// Delegating codec whose compress_batch blocks on a latch: the service's
/// shared worker stalls deterministically, so staging queues genuinely back
/// up instead of draining as fast as tests can fill them.
class GatedCodec : public WedgeCodec {
 public:
  explicit GatedCodec(const WedgeCodec& inner) : inner_(inner) {}

  std::uint8_t codec_id() const override { return inner_.codec_id(); }
  std::string name() const override { return "gated-" + inner_.name(); }
  std::vector<WedgeEnvelope> compress_batch(
      const std::vector<Tensor>& wedges) const override {
    entered_.fetch_add(1);
    gate_.wait();
    return inner_.compress_batch(wedges);
  }
  std::vector<Tensor> decompress_batch(
      const std::vector<WedgeEnvelope>& envelopes) const override {
    return inner_.decompress_batch(envelopes);
  }
  void release() const { gate_.release(); }
  /// compress_batch calls so far, the stalled one included.
  int entered() const { return entered_.load(); }

 private:
  const WedgeCodec& inner_;
  mutable StallLatch gate_;
  mutable std::atomic<int> entered_{0};
};

/// Delegating codec that throttles each batch: keeps a backlog standing for
/// a bounded, known time without ever blocking forever.
class SlowCodec : public WedgeCodec {
 public:
  SlowCodec(const WedgeCodec& inner, std::chrono::milliseconds per_batch)
      : inner_(inner), per_batch_(per_batch) {}

  std::uint8_t codec_id() const override { return inner_.codec_id(); }
  std::string name() const override { return "slow-" + inner_.name(); }
  std::vector<WedgeEnvelope> compress_batch(
      const std::vector<Tensor>& wedges) const override {
    std::this_thread::sleep_for(per_batch_);
    return inner_.compress_batch(wedges);
  }
  std::vector<Tensor> decompress_batch(
      const std::vector<WedgeEnvelope>& envelopes) const override {
    return inner_.decompress_batch(envelopes);
  }

 private:
  const WedgeCodec& inner_;
  std::chrono::milliseconds per_batch_;
};

/// Thread-safe ordered-emission recorder for a session sink.
struct SinkLog {
  mutable std::mutex mutex;
  std::vector<std::uint64_t> seqs;
  std::vector<WedgeEnvelope> envelopes;

  void push(std::uint64_t seq, WedgeEnvelope&& env) {
    std::lock_guard<std::mutex> lock(mutex);
    seqs.push_back(seq);
    envelopes.push_back(std::move(env));
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex);
    return seqs.size();
  }
};

SessionOptions session(const WedgeCodec& codec, SinkLog* log,
                       std::size_t queue_capacity = 64) {
  SessionOptions opt;
  opt.ladder = {&codec};
  opt.queue_capacity = queue_capacity;
  if (log != nullptr) {
    opt.sink = [log](std::uint64_t seq, WedgeEnvelope&& env) {
      log->push(seq, std::move(env));
    };
  }
  return opt;
}

/// Manual-admission service options: small shared pool, deterministic ticks.
ServiceOptions manual_options(std::size_t n_workers = 2,
                              std::size_t queue = 16) {
  ServiceOptions opt;
  opt.pipeline.n_workers = n_workers;
  opt.pipeline.queue_capacity = queue;
  opt.pipeline.batch_size = 2;
  opt.admission_interval_s = 0.0;  // admission_tick() only
  opt.admission.window = 1;
  opt.admission.cooldown = 0;
  return opt;
}

/// Runs `call` on the service from a thread of its own and waits at most
/// 10 s, so a hang fails the test with a message instead of running into
/// ctest's TIMEOUT.  On timeout the service is leaked on purpose: the stuck
/// call still uses it, so it can be neither finished nor destroyed.
template <typename Call>
auto within_deadline(std::unique_ptr<CompressionService>& service,
                     const std::string& what, Call call)
    -> std::optional<decltype(call(*service))> {
  using Result = decltype(call(*service));
  std::packaged_task<Result()> task(
      [svc = service.get(), call] { return call(*svc); });
  auto result = task.get_future();
  std::thread(std::move(task)).detach();
  if (result.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << what << " did not return within 10 s";
    (void)service.release();
    return std::nullopt;
  }
  return result.get();
}

std::optional<SessionStats> close_within_deadline(
    std::unique_ptr<CompressionService>& service, SessionId id) {
  return within_deadline(
      service, "close_session(" + std::to_string(id) + ")",
      [id](CompressionService& s) { return s.close_session(id); });
}

std::string fresh_spill_dir() {
  return nc::testutil::fresh_test_dir("nc-service-");
}

/// Fill the session's staging queue to the brim and admission-tick until the
/// predicate holds (the scheduler drains staging concurrently, so one fill
/// pass may leave the queue transiently shallower than a tick wants to see).
/// Returns the number of accepted submits; stops filling once `done` holds.
template <typename Pred>
int fill_and_tick_until(CompressionService& service, SessionId id,
                        Pred&& done) {
  int accepted = 0;
  const bool ok = spin_until([&] {
    if (done()) return true;
    while (service.try_submit(id, raw_wedge(0)) == SubmitResult::kAccepted) {
      ++accepted;
    }
    service.admission_tick();
    return done();
  });
  EXPECT_TRUE(ok) << "admission never reached the expected state";
  return accepted;
}

TEST(Service, OpenSessionValidatesLadder) {
  CompressionService service(manual_options());
  EXPECT_THROW(service.open_session(SessionOptions{}), std::invalid_argument);
  SessionOptions null_rung;
  null_rung.ladder = {nullptr};
  EXPECT_THROW(service.open_session(std::move(null_rung)),
               std::invalid_argument);
  EXPECT_EQ(service.open_sessions(), 0u);
}

TEST(Service, UnknownSessionIdsAreRejected) {
  CompressionService service(manual_options());
  EXPECT_EQ(service.submit(42, raw_wedge(0)), SubmitResult::kClosed);
  EXPECT_THROW(service.close_session(42), std::invalid_argument);
  EXPECT_THROW(service.session_stats(42), std::invalid_argument);
}

TEST(Service, RoundTripMatchesDirectCompressionBitExact) {
  // Three interleaved sessions over one shared pool: every session's sink
  // must see the identity sequence 0..n-1 with envelopes bit-identical to
  // compressing its own wedges directly — multiplexing must be invisible.
  CompressionService service(manual_options(/*n_workers=*/3));
  const int kSessions = 3;
  const int n = 12;
  std::vector<SinkLog> logs(kSessions);
  std::vector<SessionId> ids;
  for (int s = 0; s < kSessions; ++s) {
    ids.push_back(service.open_session(
        session(zfp_codec(), &logs[static_cast<std::size_t>(s)])));
  }
  for (int i = 0; i < n; ++i) {
    for (int s = 0; s < kSessions; ++s) {
      // Session s streams wedges s, s+1, ... so the three streams differ.
      EXPECT_EQ(service.submit(ids[static_cast<std::size_t>(s)],
                               raw_wedge(static_cast<std::size_t>(s + i))),
                SubmitResult::kAccepted);
    }
  }
  for (int s = 0; s < kSessions; ++s) {
    const auto stats = service.close_session(ids[static_cast<std::size_t>(s)]);
    EXPECT_EQ(stats.submitted, n);
    EXPECT_EQ(stats.compressed, n);
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(stats.failed, 0);
    EXPECT_EQ(stats.codec, zfp_codec().name());
    auto& log = logs[static_cast<std::size_t>(s)];
    nc::testutil::expect_ordered_identity(log.seqs,
                                          static_cast<std::uint64_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto direct =
          zfp_codec().compress(raw_wedge(static_cast<std::size_t>(s + i)));
      const auto& emitted = log.envelopes[static_cast<std::size_t>(i)];
      EXPECT_EQ(emitted.codec_id, direct.codec_id);
      ASSERT_EQ(emitted.payload.size(), direct.payload.size());
      EXPECT_EQ(emitted.payload, direct.payload)
          << "session " << s << " wedge " << i << " bitstream diverged";
    }
  }
  EXPECT_EQ(service.open_sessions(), 0u);
  const auto totals = service.finish();
  EXPECT_EQ(totals.sessions_opened, kSessions);
  EXPECT_EQ(totals.wedges_scheduled, kSessions * n);
  EXPECT_EQ(totals.wedges_shed, 0);
}

TEST(Service, TrySubmitReportsQueueFullOnABackedUpSession) {
  // One gated worker: nothing drains, so the session's staging queue (plus
  // the small pipeline intake the scheduler feeds) absorbs a bounded number
  // of wedges and try_submit must then report the full queue.  No admission
  // ticks run, so nothing may shed.
  GatedCodec gated(zfp_codec());
  auto opt = manual_options(/*n_workers=*/1, /*queue=*/2);
  opt.drr_quantum = 1;
  CompressionService service(opt);
  const auto id = service.open_session(session(gated, nullptr,
                                               /*queue_capacity=*/4));
  int accepted = 0;
  int full = 0;
  for (int i = 0; i < 64; ++i) {
    switch (service.try_submit(id, raw_wedge(0))) {
      case SubmitResult::kAccepted:
        ++accepted;
        break;
      case SubmitResult::kQueueFull:
        ++full;
        break;
      default:
        FAIL() << "only kAccepted/kQueueFull are possible here";
    }
  }
  EXPECT_GT(full, 0) << "an unbounded session queue would hide overload";
  EXPECT_LT(accepted, 64);
  gated.release();
  const auto stats = service.close_session(id);
  EXPECT_EQ(stats.submitted, accepted);
  EXPECT_EQ(stats.compressed, accepted);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_GT(stats.queue_depth_hwm, 0);
  service.finish();
}

TEST(Service, DrrRoundRobinKeepsAPoliteSessionFlowing) {
  // A firehose session with ~100 ms of throttled backlog and a polite
  // session submitting one fast wedge: DRR must schedule the polite wedge
  // within a round or two, so it emerges while the firehose still has most
  // of its backlog staged — not after it.
  SlowCodec slow(zfp_codec(), std::chrono::milliseconds(5));
  auto opt = manual_options(/*n_workers=*/1, /*queue=*/2);
  opt.drr_quantum = 2;
  CompressionService service(opt);
  SinkLog fire_log;
  SinkLog polite_log;
  const auto fire =
      service.open_session(session(slow, &fire_log, /*queue_capacity=*/64));
  const auto polite = service.open_session(
      session(zfp_codec(), &polite_log, /*queue_capacity=*/4));
  for (int i = 0; i < 48; ++i) {
    ASSERT_EQ(service.submit(fire, raw_wedge(static_cast<std::size_t>(i))),
              SubmitResult::kAccepted);
  }
  ASSERT_EQ(service.submit(polite, raw_wedge(1)), SubmitResult::kAccepted);
  ASSERT_TRUE(spin_until([&] { return polite_log.size() == 1; }));
  EXPECT_LT(fire_log.size(), 48u)
      << "polite session waited behind the entire firehose backlog";
  service.close_session(fire);
  service.close_session(polite);
  service.finish();
}

TEST(Service, ShedsOnlyWithLadderExhaustedAndCountsGaps) {
  // Single-rung ladder + gated worker: admission has nowhere to degrade,
  // so a sustained full staging queue must latch shedding — early, counted
  // drops whose sequence numbers surface as sink gaps, never reordering.
  GatedCodec gated(zfp_codec());
  auto opt = manual_options(/*n_workers=*/1, /*queue=*/2);
  opt.drr_quantum = 1;
  CompressionService service(opt);
  SinkLog log;
  const auto id = service.open_session(session(gated, &log,
                                               /*queue_capacity=*/4));
  int accepted = 0;
  int shed_in_fill = 0;
  ASSERT_TRUE(spin_until([&] {
    for (;;) {
      const auto r = service.try_submit(id, raw_wedge(0));
      if (r == SubmitResult::kAccepted) {
        ++accepted;
        continue;
      }
      if (r == SubmitResult::kShed) {
        ++shed_in_fill;
        return true;  // the latch engaged
      }
      break;  // kQueueFull: not latched yet, let admission look
    }
    service.admission_tick();
    return false;
  }));
  ASSERT_GT(accepted, 0);
  EXPECT_EQ(service.session_stats(id).rung, 0u)
      << "nowhere to degrade on a one-rung ladder";
  const int kShedWedges = 5;
  for (int i = 0; i < kShedWedges; ++i) {
    EXPECT_EQ(service.submit(id, raw_wedge(0)), SubmitResult::kShed)
        << "latched shedding must drop immediately, not block";
  }
  gated.release();
  const auto closed = service.close_session(id);
  EXPECT_EQ(closed.shed, shed_in_fill + kShedWedges);
  EXPECT_EQ(closed.compressed + closed.shed, closed.submitted);
  EXPECT_EQ(closed.degradations, 0);
  // Ordered emission with gaps: exactly the accepted wedges come out, in
  // strictly increasing seq order.
  std::lock_guard<std::mutex> lock(log.mutex);
  EXPECT_EQ(static_cast<std::int64_t>(log.seqs.size()), closed.compressed);
  EXPECT_TRUE(std::is_sorted(log.seqs.begin(), log.seqs.end()));
  service.finish();
}

TEST(Service, DegradesDownTheLadderBeforeShedding) {
  // Two-rung ladder: the same sustained overload that sheds a one-rung
  // session must first hop this one to its cheaper codec, with nothing
  // dropped while a rung remained.
  GatedCodec gated(zfp_codec());
  auto opt = manual_options(/*n_workers=*/1, /*queue=*/2);
  opt.drr_quantum = 1;
  CompressionService service(opt);
  SinkLog log;
  SessionOptions sopt;
  sopt.ladder = {&gated, &zfp_codec()};
  sopt.queue_capacity = 4;
  sopt.sink = [&log](std::uint64_t seq, WedgeEnvelope&& env) {
    log.push(seq, std::move(env));
  };
  const auto id = service.open_session(std::move(sopt));
  const int accepted = fill_and_tick_until(
      service, id, [&] { return service.session_stats(id).rung == 1; });
  const auto mid = service.session_stats(id);
  EXPECT_EQ(mid.degradations, 1);
  EXPECT_EQ(mid.codec, zfp_codec().name());
  EXPECT_EQ(mid.shed, 0) << "a rung was available: nothing may shed";
  gated.release();
  // More work flows normally under the cheaper codec.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(service.submit(id, raw_wedge(0)), SubmitResult::kAccepted);
  }
  const auto closed = service.close_session(id);
  EXPECT_EQ(closed.compressed, accepted + 4);
  EXPECT_EQ(closed.shed, 0);
  EXPECT_EQ(closed.degradations, 1);
  EXPECT_EQ(static_cast<int>(log.size()), accepted + 4);
  service.finish();
}

TEST(Service, RecoveryClimbsBackAfterQuietWindows) {
  GatedCodec gated(zfp_codec());
  auto opt = manual_options(/*n_workers=*/1, /*queue=*/2);
  opt.drr_quantum = 1;
  opt.admission.recover_window = 2;
  CompressionService service(opt);
  SessionOptions sopt;
  sopt.ladder = {&gated, &zfp_codec()};
  sopt.queue_capacity = 4;
  const auto id = service.open_session(std::move(sopt));
  fill_and_tick_until(service, id,
                      [&] { return service.session_stats(id).rung == 1; });
  gated.release();
  // Once the backlog drains, quiet admission windows climb back to rung 0.
  ASSERT_TRUE(spin_until([&] {
    service.admission_tick();
    return service.session_stats(id).rung == 0;
  }));
  const auto stats = service.close_session(id);
  EXPECT_EQ(stats.degradations, 1);
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(stats.codec, "gated-" + zfp_codec().name());
  service.finish();
}

// ---------------------------------------------------------------------------
// Concurrency (the suite runs under TSan in CI via the tsan label)
// ---------------------------------------------------------------------------

TEST(Service, ConcurrentFinishVsInFlightSubmits) {
  // Submitter threads hammer their sessions while the main thread tears the
  // whole service down: every submit must resolve cleanly (kAccepted wedges
  // fully emitted, late ones kClosed), with no lost or duplicated wedges.
  CompressionService service(manual_options(/*n_workers=*/3, /*queue=*/8));
  const int kThreads = 4;
  std::vector<SinkLog> logs(kThreads);
  std::vector<SessionId> ids;
  for (int t = 0; t < kThreads; ++t) {
    ids.push_back(service.open_session(
        session(zfp_codec(), &logs[static_cast<std::size_t>(t)],
                /*queue_capacity=*/8)));
  }
  std::vector<std::int64_t> accepted(kThreads, 0);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        const auto result =
            service.try_submit(ids[static_cast<std::size_t>(t)],
                               raw_wedge(static_cast<std::size_t>(i)));
        if (result == SubmitResult::kAccepted) {
          ++accepted[static_cast<std::size_t>(t)];
        } else if (result == SubmitResult::kClosed) {
          break;  // finish() won the race
        }
        std::this_thread::yield();
      }
    });
  }
  // Tear down while submitters are mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.finish();
  for (auto& t : submitters) t.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto stats = service.close_session(ids[static_cast<std::size_t>(t)]);
    EXPECT_EQ(stats.submitted, accepted[static_cast<std::size_t>(t)]);
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(stats.compressed + stats.failed, stats.submitted);
    auto& log = logs[static_cast<std::size_t>(t)];
    std::lock_guard<std::mutex> lock(log.mutex);
    EXPECT_EQ(static_cast<std::int64_t>(log.seqs.size()), stats.compressed);
    EXPECT_TRUE(std::is_sorted(log.seqs.begin(), log.seqs.end()));
  }
}

TEST(Service, ConcurrentSessionChurn) {
  // Sessions opening, streaming and closing concurrently while admission
  // ticks race them: the session map, scheduler rounds and admission passes
  // all contend here.  Queues are deep enough (16 wedges into capacity 32,
  // depth <= 0.5) that admission always holds — nothing may shed.
  CompressionService service(manual_options(/*n_workers=*/3, /*queue=*/8));
  std::atomic<std::int64_t> total_compressed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        const auto id = service.open_session(
            session(zfp_codec(), nullptr, /*queue_capacity=*/32));
        for (int i = 0; i < 16; ++i) {
          EXPECT_EQ(
              service.submit(id, raw_wedge(static_cast<std::size_t>(t + i))),
              SubmitResult::kAccepted);
        }
        service.admission_tick();  // races the other clients' churn
        total_compressed.fetch_add(service.close_session(id).compressed);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(total_compressed.load(), 4 * 3 * 16);
  const auto totals = service.finish();
  EXPECT_EQ(totals.sessions_opened, 12);
  EXPECT_EQ(totals.wedges_shed, 0);
  EXPECT_EQ(totals.pipeline.wedges_failed, 0);
}

TEST(Service, AdmissionTicksFromManyThreads) {
  // admission_tick() is safe from any thread: four threads tick a few
  // hundred times each, all at once, while two live sessions stream, so
  // every run of this case puts concurrent admission passes in front of
  // TSan.  Each session's queue stays at most a quarter full and its ladder
  // has one rung, so every pass holds: nothing degrades or sheds.
  CompressionService service(manual_options(/*n_workers=*/2, /*queue=*/8));
  const auto a = service.open_session(session(zfp_codec(), nullptr));
  const auto b = service.open_session(session(zfp_codec(), nullptr));
  constexpr int kTickers = 4, kTicks = 300, kWedges = 16;
  std::atomic<int> ready{0};
  std::vector<std::thread> tickers;
  for (int t = 0; t < kTickers; ++t) {
    tickers.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kTickers) std::this_thread::yield();
      for (int i = 0; i < kTicks; ++i) service.admission_tick();
    });
  }
  for (int i = 0; i < kWedges; ++i) {
    EXPECT_EQ(service.submit(a, raw_wedge(static_cast<std::size_t>(i))),
              SubmitResult::kAccepted);
    EXPECT_EQ(service.submit(b, raw_wedge(static_cast<std::size_t>(i + 1))),
              SubmitResult::kAccepted);
  }
  for (auto& t : tickers) t.join();
  for (const auto id : {a, b}) {
    const auto stats = service.close_session(id);
    EXPECT_EQ(stats.submitted, kWedges);
    EXPECT_EQ(stats.compressed, kWedges);
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(stats.degradations, 0);
  }
  const auto totals = service.finish();
  EXPECT_EQ(totals.wedges_shed, 0);
  EXPECT_EQ(totals.degradations, 0);
}

// ---------------------------------------------------------------------------
// Every outcome reaches its session: losses below the service (a refused
// spill, a corrupt spill record) settle as `failed` through the route table
// ---------------------------------------------------------------------------

/// One worker, intake 1, batch 1 and a spill tier: while the worker is
/// stalled on wedge 0 and wedge 1 waits in the intake, wedges 2..5 go to
/// the spill tier.
ServiceOptions spilling_options(const std::string& dir) {
  auto opt = manual_options(/*n_workers=*/1, /*queue=*/1);
  opt.pipeline.batch_size = 1;
  opt.pipeline.spill_dir = dir;
  return opt;
}

void submit_six_behind_a_stalled_worker(CompressionService& service,
                                        SessionId id, const GatedCodec& gated) {
  ASSERT_EQ(service.submit(id, raw_wedge(0)), SubmitResult::kAccepted);
  ASSERT_TRUE(spin_until([&] { return gated.entered() == 1; }));
  for (std::size_t i = 1; i < 6; ++i) {
    ASSERT_EQ(service.submit(id, raw_wedge(i)), SubmitResult::kAccepted);
  }
}

/// The spill segment under `dir` once it holds `n` whole records, else "".
std::string segment_holding(const std::string& dir, int n) {
  try {
    for (const auto& entry : fs::directory_iterator(dir)) {
      nc::codec::SpillReader reader(entry.path().string());
      nc::codec::SpillRecord rec;
      int records = 0;
      while (reader.next(rec)) ++records;
      if (records == n) return entry.path().string();
    }
  } catch (const std::exception&) {
    // No directory yet, or a record still being written.
  }
  return "";
}

TEST(Service, RefusedSpillReachesItsSession) {
  // A one-byte quota refuses every spill, so the pipeline drops wedges
  // 2..5.  Each drop must settle in the session as failed; otherwise the
  // session cursor waits for them and close_session() never returns.
  GatedCodec gated(zfp_codec());
  const std::string dir = fresh_spill_dir();
  auto opt = spilling_options(dir);
  opt.pipeline.spill_max_bytes = 1;
  auto service = std::make_unique<CompressionService>(opt);
  const auto id = service->open_session(session(gated, nullptr));
  submit_six_behind_a_stalled_worker(*service, id, gated);
  EXPECT_TRUE(
      spin_until([&] { return service->session_stats(id).failed == 4; }))
      << "the refused spills never reached the session";
  gated.release();
  const auto stats = close_within_deadline(service, id);
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->submitted, 6);
  EXPECT_EQ(stats->compressed, 2);
  EXPECT_EQ(stats->failed, 4);
  const auto totals = service->finish();
  EXPECT_EQ(totals.pipeline.wedges_dropped, stats->failed);
  EXPECT_EQ(totals.pipeline.wedges_spilled, 0);
  fs::remove_all(dir);
}

TEST(Service, CorruptSpilledRecordReachesItsSession) {
  // Wedges 2..5 wait on disk; one flipped byte in the last record's CRC
  // makes its replay fail.  The pipeline loses that wedge, and the loss
  // must settle in the session as failed.
  GatedCodec gated(zfp_codec());
  const std::string dir = fresh_spill_dir();
  auto service = std::make_unique<CompressionService>(spilling_options(dir));
  const auto id = service->open_session(session(gated, nullptr));
  submit_six_behind_a_stalled_worker(*service, id, gated);
  std::string segment;
  ASSERT_TRUE(spin_until([&] {
    segment = segment_holding(dir, 4);
    return !segment.empty();
  }));
  {
    std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(-1, std::ios::end);
    const char c = static_cast<char>(f.get());
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x40));
  }
  gated.release();
  const auto stats = close_within_deadline(service, id);
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->submitted, 6);
  EXPECT_EQ(stats->compressed, 5);
  EXPECT_EQ(stats->failed, 1);
  const auto totals = service->finish();
  EXPECT_EQ(totals.pipeline.wedges_spilled, 4);
  EXPECT_EQ(totals.pipeline.wedges_replayed, 3);
  EXPECT_EQ(totals.pipeline.wedges_failed, 1);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Seeded model: every submit ends counted
// ---------------------------------------------------------------------------

/// Cheap seeded hash for the model's fault decisions.
bool seeded_hit(std::uint32_t seed, std::uint64_t n, std::uint32_t one_in) {
  std::uint64_t x = (n + 1) * 0x9E3779B97F4A7C15ull ^ seed;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 32;
  return x % one_in == 0;
}

/// Stand-in codec for the model: a 4-byte envelope per wedge after a short
/// stall (so the intake backs up and spills), and a throw for a seeded
/// subset of batches.  Counts the wedges it failed.
class FlakyCodec : public WedgeCodec {
 public:
  FlakyCodec(std::uint8_t id, std::uint32_t seed) : id_(id), seed_(seed) {}

  std::uint8_t codec_id() const override { return id_; }
  std::string name() const override { return "flaky-" + std::to_string(id_); }
  std::vector<WedgeEnvelope> compress_batch(
      const std::vector<Tensor>& wedges) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    if (seeded_hit(seed_ + id_, calls_.fetch_add(1), 5)) {
      failed_.fetch_add(static_cast<std::int64_t>(wedges.size()));
      throw std::runtime_error("seeded codec failure");
    }
    std::vector<WedgeEnvelope> out(wedges.size());
    for (auto& env : out) {
      env.codec_id = id_;
      env.payload = {1, 2, 3, 4};
    }
    return out;
  }
  std::vector<Tensor> decompress_batch(
      const std::vector<WedgeEnvelope>&) const override {
    throw std::logic_error("FlakyCodec only compresses");
  }
  std::int64_t failed() const { return failed_.load(); }

 private:
  std::uint8_t id_;
  std::uint32_t seed_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::int64_t> failed_{0};
};

/// One model session: its sink log and the submits the service answered
/// kAccepted or kShed (the seqs it consumed).
struct ModelSession {
  SessionId id = 0;
  SinkLog log;
  std::int64_t offered = 0;
};

/// The per-session conservation rules, checked on close_session's stats.
void expect_counted(const SessionStats& stats, const ModelSession& s) {
  EXPECT_EQ(stats.submitted, s.offered);
  EXPECT_EQ(stats.submitted, stats.compressed + stats.shed + stats.failed);
  std::lock_guard<std::mutex> lock(s.log.mutex);
  EXPECT_EQ(static_cast<std::int64_t>(s.log.seqs.size()), stats.compressed)
      << "the sink must be called once per compressed wedge";
  EXPECT_EQ(std::adjacent_find(s.log.seqs.begin(), s.log.seqs.end(),
                               std::greater_equal<>()),
            s.log.seqs.end())
      << "sink seqs must be strictly increasing";
}

/// One seeded run: up to 200 open / submit / try_submit / close /
/// admission_tick operations across at most 4 sessions, over 1-2 workers,
/// a spill quota that refuses some spills, a codec that throws on some
/// batches and sinks that throw on some calls.
void run_service_model(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const FlakyCodec fast(1, seed);
  const FlakyCodec cheap(2, seed);
  const std::string dir = fresh_spill_dir();
  auto opt = manual_options(/*n_workers=*/1 + rng() % 2, /*queue=*/2);
  opt.pipeline.spill_dir = dir;
  // A one-element wedge spills as a 40-byte record: room for three.  The
  // short deadline slows the scheduler, so staging backs up for admission.
  opt.pipeline.spill_max_bytes = 16 + 3 * 40;
  opt.pipeline.spill_deadline_s = 0.0002;
  opt.drr_quantum = 2;
  auto service = std::make_unique<CompressionService>(opt);
  const Tensor wedge = Tensor::full({1}, 1.0f);

  std::vector<std::unique_ptr<ModelSession>> open;
  std::vector<std::unique_ptr<ModelSession>> closed;
  std::int64_t failed = 0;
  std::int64_t shed = 0;
  const auto close_one = [&](std::size_t at) {
    const auto stats = close_within_deadline(service, open[at]->id);
    if (!stats) {
      // The leaked service may still call these sessions' sinks.
      for (auto& s : open) (void)s.release();
      return false;
    }
    expect_counted(*stats, *open[at]);
    failed += stats->failed;
    shed += stats->shed;
    closed.push_back(std::move(open[at]));
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(at));
    return true;
  };
  // Op mix by kind: 0 open (while fewer than 4), 1-2 submit, 3-7
  // try_submit, 8 admission_tick, 9 close.
  const int n_ops = 100 + static_cast<int>(rng() % 101);
  for (int op = 0; op < n_ops; ++op) {
    const std::uint32_t kind = rng() % 10;
    if (open.empty() || (kind == 0 && open.size() < 4)) {
      auto s = std::make_unique<ModelSession>();
      SessionOptions sopt;
      sopt.ladder = {&fast};
      if (rng() % 2 == 0) sopt.ladder.push_back(&cheap);
      sopt.queue_capacity = 2 + rng() % 4;
      const auto nth = static_cast<std::uint32_t>(open.size() + closed.size());
      sopt.sink = [log = &s->log, key = seed * 64 + nth](std::uint64_t seq,
                                                         WedgeEnvelope&& env) {
        log->push(seq, std::move(env));  // recorded before the throw
        if (seeded_hit(key, seq, 7)) {
          throw std::runtime_error("seeded sink failure");
        }
      };
      s->id = service->open_session(std::move(sopt));
      open.push_back(std::move(s));
      continue;
    }
    ModelSession& s = *open[rng() % open.size()];
    if (kind <= 7) {
      const auto r = kind <= 2 ? service->submit(s.id, wedge)
                               : service->try_submit(s.id, wedge);
      if (r == SubmitResult::kAccepted || r == SubmitResult::kShed) ++s.offered;
    } else if (kind == 8) {
      service->admission_tick();
    } else if (!close_one(rng() % open.size())) {
      return;
    }
  }
  // Close the rest before finish() on even seeds, after it on odd ones.
  if (seed % 2 == 0) {
    while (!open.empty()) {
      if (!close_one(0)) return;
    }
  }
  const auto totals =
      within_deadline(service, "finish()",
                      [](CompressionService& svc) { return svc.finish(); });
  ASSERT_TRUE(totals);
  while (!open.empty()) {
    if (!close_one(0)) return;
  }
  const auto& pipe = totals->pipeline;
  EXPECT_EQ(totals->wedges_scheduled,
            pipe.wedges_compressed + pipe.wedges_failed + pipe.wedges_dropped);
  // Every loss below the service reached exactly one session.
  EXPECT_EQ(failed, pipe.wedges_failed + pipe.wedges_dropped + fast.failed() +
                        cheap.failed());
  EXPECT_EQ(shed, totals->wedges_shed);
  fs::remove_all(dir);
}

TEST(ServiceModel, EverySubmitEndsCounted) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_service_model(seed);
    if (HasFailure()) return;  // report the first failing seed only
  }
}

}  // namespace
