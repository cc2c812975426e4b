/// \file sharded_queue.hpp
/// \brief StreamPipeline's intake: the bounded queue producers submit into
///        and workers drain from, split into per-worker shards with batch
///        work-stealing.
///
/// One mutex shared by every producer and every worker is the pipeline's
/// contention point at high worker counts, so the intake is `n` independently
/// locked FIFOs, one per worker (StreamPipeline builds it with one shard per
/// pool slot; a one-worker pipeline gets a single shard, i.e. a plain
/// bounded FIFO):
///
///  * Producers submit round-robin (by push ticket) so load spreads without
///    coordination; when the round-robin target is full they fall back to
///    the shallowest shard with space, so one slow worker's backlog doesn't
///    fail submits while sibling shards sit empty.  try_push fails only when
///    every shard is full — the same backpressure threshold as one queue of
///    the aggregate capacity (rounded up to a shard multiple).
///  * Workers drain their own shard first and steal a batch from the
///    deepest sibling when it runs dry.
///
/// Contract the pipeline relies on:
///
///  * `try_push` — non-blocking enqueue; false means backpressure (or
///    closed).  It moves from the item only on success, so the overflow path
///    (the spill tier) can reuse a rejected item without a deep copy.
///  * `wait_for_space` / `wait_for_space_for` — park until space might
///    exist, the intake closes or (timed form) the timeout expires; space is
///    not reserved, so callers retry try_push in a loop.
///  * `pop_batch` — blocking batch dequeue sized from the intake depth
///    (`detail::adaptive_drain_cap`).  It returns 0 *only* when the intake
///    is closed AND every shard is drained, never as a spurious wakeup: a
///    worker never parks while any sibling shard still holds items, so no
///    wedge can be stranded in the shard of a stalled worker.
///  * `close` — idempotent; unblocks every parked producer and worker.
///
/// Ordering: every push gets a monotonic ticket, which picks its
/// round-robin shard.  When pushes are externally serialized — as
/// StreamPipeline's submit paths are, under submit_mutex_ — items within one
/// shard are FIFO in submission order, so a popped batch is ascending in
/// submission order.  With one shard a batch is also contiguous; with
/// several it may have gaps (items routed to sibling shards).  Fully
/// concurrent producers still get correct delivery, backpressure and
/// shutdown, but ticket assignment and shard insertion are then separate
/// steps, so per-shard order is only approximate.  Ordered emission needs
/// neither property: the pipeline's cursor (reorderer.hpp) accepts
/// completions in any order and keeps the one ordering rule — sink calls
/// never overlap, seqs strictly increase, failures are gaps.
///
/// Locking: push/pop touch only one shard mutex on the fast path; the
/// shared `park_mutex_` is taken only to sleep (empty intake) or to wake
/// sleepers, never per item under load.
///
/// Elastic/topology hooks (used by the elastic StreamPipeline pool):
/// `set_active_workers(k)` re-homes fresh pushes onto the shards of the k
/// live workers so a scaled-down worker's shard drains instead of queueing
/// behind a sleeping owner, and `set_shard_nodes` records each shard's NUMA
/// node so steals prefer same-node victims.  Neither affects
/// capacity, backpressure or the pop_batch terminal contract.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <vector>

namespace nc::codec {

/// Outcome of a timed space wait (`wait_for_space_for`) — the spill-deadline
/// path needs to distinguish "space may exist, retry" from "closed, give up"
/// from "deadline hit, divert to the spill tier".
enum class SpaceWait {
  kReady,    ///< space may exist (not reserved: retry try_push)
  kClosed,   ///< intake closed while waiting
  kTimeout,  ///< still full when the timeout expired
};

namespace detail {
/// Depth-adaptive drain sizing: a fair share of the observed backlog per
/// worker, clamped to [1, max_items] — full batches when the intake is
/// backed up (throughput), single items on a trickle (latency, and the
/// trickle spreads across workers).  share == 0 disables adaptivity
/// (always max_items).
inline std::size_t adaptive_drain_cap(std::size_t depth, std::size_t share,
                                      std::size_t max_items) {
  if (share == 0) return max_items;
  const std::size_t fair = (depth + share - 1) / share;
  return std::clamp<std::size_t>(fair, 1, max_items);
}
}  // namespace detail

template <typename T>
class ShardedQueue {
 public:
  ShardedQueue(std::size_t shards, std::size_t capacity)
      : shards_(shards == 0 ? 1 : shards) {
    shard_capacity_ = (capacity + shards_.size() - 1) / shards_.size();
    if (shard_capacity_ == 0) shard_capacity_ = 1;
  }

  /// Non-blocking enqueue (see file comment); moves from `item` only on
  /// success.
  bool try_push(T&& item) {
    if (closed_.load()) return false;
    const std::uint64_t ticket = next_ticket_.fetch_add(1);
    const std::size_t n = shards_.size();
    // Elastic routing: round-robin (and the least-depth fallback) target
    // only the shards owned by live workers, so a scaled-down worker's
    // shard receives nothing new and drains to empty via steals.  The
    // full-capacity sweep below still covers every shard — routing never
    // tightens backpressure, it only moves fresh items off parked shards.
    const std::size_t route = route_limit_.load(std::memory_order_relaxed);
    const std::size_t primary = static_cast<std::size_t>(ticket % route);
    if (push_to(primary, item)) return true;
    // Round-robin target full: fall back to the shallowest live shard with
    // space.
    std::size_t best = n;
    std::size_t best_depth = std::numeric_limits<std::size_t>::max();
    for (std::size_t s = 0; s < route; ++s) {
      if (s == primary) continue;
      const std::size_t d = shards_[s].depth.load();
      if (d < shard_capacity_ && d < best_depth) {
        best = s;
        best_depth = d;
      }
    }
    if (best < n && push_to(best, item)) return true;
    // The shallowest candidate raced full (or none had space): try the rest
    // so failure really means "every shard full", not "lost a race".
    for (std::size_t s = 0; s < n; ++s) {
      if (s == primary || s == best) continue;
      if (push_to(s, item)) return true;
    }
    return false;
  }

  /// Copying convenience for producers that keep their item.
  bool try_push(const T& item) {
    T copy = item;
    return try_push(std::move(copy));
  }

  /// Block until some shard has space or the intake closes; false when
  /// closed.
  bool wait_for_space() {
    std::unique_lock<std::mutex> lock(park_mutex_);
    ++space_sleepers_;
    space_cv_.wait(lock, [&] { return closed_.load() || has_space(); });
    --space_sleepers_;
    return !closed_.load();
  }

  /// Timed wait_for_space; kReady does not reserve space (retry try_push).
  SpaceWait wait_for_space_for(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(park_mutex_);
    ++space_sleepers_;
    const bool woken = space_cv_.wait_for(
        lock, timeout, [&] { return closed_.load() || has_space(); });
    --space_sleepers_;
    if (!woken) return SpaceWait::kTimeout;
    return closed_.load() ? SpaceWait::kClosed : SpaceWait::kReady;
  }

  /// Append 1..max_items items to `out` for worker `worker_index`, blocking
  /// while the intake is empty and open; 0 only when closed and drained.
  /// `adaptive_share` (the live worker count) sizes the drain from the
  /// depth observed at pop time, after any blocking wait.  `stolen` (may be
  /// null) reports whether the pop served a sibling's shard because the
  /// worker's own ran dry.
  std::size_t pop_batch(std::size_t worker_index, std::vector<T>& out,
                        std::size_t max_items, std::size_t adaptive_share,
                        bool* stolen) {
    if (max_items == 0) max_items = 1;  // keep the 0-iff-closed contract
    const std::size_t n = shards_.size();
    const std::size_t own = worker_index % n;
    while (true) {
      // Recomputed every retry so the drain after an idle park is sized by
      // the burst that woke the worker, not the emptiness before it.
      const std::size_t cap = detail::adaptive_drain_cap(
          total_items_.load(), adaptive_share, max_items);
      // "Stolen" means serving a sibling's backlog because this worker's
      // own shard was dry — the fairness event worth counting.
      const bool own_empty = shards_[own].depth.load() == 0;
      const std::size_t source = pick_shard(own);
      if (source < n) {
        if (const std::size_t got = take_from(source, out, cap)) {
          if (stolen) *stolen = (source != own) && own_empty;
          return got;
        }
        continue;  // lost a race to another worker: rescan before parking
      }
      // Every shard looked empty: park until a push or close.  Re-check the
      // totals under park_mutex_ — a producer increments total_items_ before
      // checking pop_sleepers_, so registering as a sleeper first makes the
      // wakeup race-free.
      std::unique_lock<std::mutex> lock(park_mutex_);
      if (total_items_.load() > 0) continue;
      if (closed_.load()) {
        // Drop park_mutex_ before the shard sweep (push_to takes shard
        // then park: holding both here would be an ordering inversion).
        lock.unlock();
        if (verified_drained()) return 0;  // closed AND drained: terminal
        continue;  // an accepted push was still in flight: go take it
      }
      ++pop_sleepers_;
      park_cv_.wait(lock,
                    [&] { return total_items_.load() > 0 || closed_.load(); });
      --pop_sleepers_;
    }
  }

  void close() {
    std::lock_guard<std::mutex> lock(park_mutex_);
    closed_.store(true);
    park_cv_.notify_all();
    space_cv_.notify_all();
  }

  /// Elastic routing hint: fresh pushes target shards owned by workers
  /// [0, n_live).  Items already sitting in a deactivated shard are still
  /// popped/stolen — pop_batch always scans every shard.  Safe to call
  /// concurrently with pushes and pops.
  void set_active_workers(std::size_t n_live) {
    route_limit_.store(std::clamp<std::size_t>(n_live, 1, shards_.size()),
                       std::memory_order_relaxed);
  }

  /// Topology hint: NUMA node per shard (index = shard).  A worker whose
  /// own shard runs dry steals from the deepest *same-node* shard before
  /// crossing nodes.  Must be set before workers start popping (the
  /// pipeline constructor does) — it is read without synchronization.
  void set_shard_nodes(std::vector<int> nodes) {
    shard_nodes_ = std::move(nodes);
    shard_nodes_.resize(shards_.size(), 0);
  }

  /// Approximate items currently queued (a lock-free snapshot).
  std::size_t size() const { return total_items_.load(); }
  /// Requested capacity rounded up to a shard multiple.
  std::size_t capacity() const { return shard_capacity_ * shards_.size(); }
  /// Deepest the intake has ever been across all shards.
  std::size_t depth_high_water() const { return depth_high_water_.load(); }

 private:
  /// One lock + FIFO per shard, padded so neighbouring shard mutexes don't
  /// share a cache line.  `depth` mirrors the locked size for lock-free
  /// victim selection (a heuristic read only — takes re-check under the
  /// shard lock).
  struct alignas(64) Shard {
    mutable std::mutex m;
    std::deque<T> q;
    std::atomic<std::size_t> depth{0};
  };

  bool push_to(std::size_t s, T& item) {
    Shard& sh = shards_[s];
    {
      std::lock_guard<std::mutex> lock(sh.m);
      if (closed_.load() || sh.q.size() >= shard_capacity_) return false;
      sh.q.push_back(std::move(item));
      sh.depth.store(sh.q.size());
      // Inside the shard lock: an item visible in the deque is always
      // counted, so take_from's decrement (which needs this lock first)
      // can never run ahead of the increment and wrap the counter.
      const std::size_t total = total_items_.fetch_add(1) + 1;
      // High-water mark: exact when producers are serialized (as
      // StreamPipeline's submit path is), approximate under free-for-all.
      std::size_t hwm = depth_high_water_.load();
      while (total > hwm &&
             !depth_high_water_.compare_exchange_weak(hwm, total)) {
      }
    }
    // Wake outside the shard lock: park_mutex_ after sh.m would invert
    // against nothing today, but keeping the two uncoupled stays deadlock-
    // safe whatever the sweep below does.
    if (pop_sleepers_.load() > 0) {
      std::lock_guard<std::mutex> lock(park_mutex_);
      park_cv_.notify_all();
    }
    return true;
  }

  /// Authoritative terminal check: closed_ is already observed true, so any
  /// producer that acquires a shard lock from here on rejects its push, and
  /// any producer already inside push_to has inserted before we can take
  /// that same lock — locking each shard once and finding it empty proves
  /// no item exists or can ever appear.  (The lock-free total_items_ /
  /// depth counters alone cannot prove this: a producer that passed the
  /// closed_ check may still be mid-insert when they read 0.)
  bool verified_drained() {
    for (auto& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.m);
      if (!sh.q.empty()) return false;
    }
    return true;
  }

  std::size_t take_from(std::size_t s, std::vector<T>& out,
                        std::size_t max_items) {
    Shard& sh = shards_[s];
    std::size_t got = 0;
    {
      std::lock_guard<std::mutex> lock(sh.m);
      while (got < max_items && !sh.q.empty()) {
        out.push_back(std::move(sh.q.front()));
        sh.q.pop_front();
        ++got;
      }
      sh.depth.store(sh.q.size());
    }
    if (got > 0) {
      total_items_.fetch_sub(got);
      if (space_sleepers_.load() > 0) {
        std::lock_guard<std::mutex> lock(park_mutex_);
        space_cv_.notify_all();
      }
    }
    return got;
  }

  /// Pick the shard to pop from; returns the shard count when all look
  /// empty.  The worker's own shard first, then the deepest shard on its
  /// own NUMA node (cheap steal: the deque's lines are already local), then
  /// the deepest anywhere.
  std::size_t pick_shard(std::size_t own) const {
    const std::size_t n = shards_.size();
    if (shards_[own].depth.load() > 0) return own;
    const bool have_nodes = !shard_nodes_.empty();
    const int own_node = have_nodes ? shard_nodes_[own] : 0;
    std::size_t best = n, best_local = n;
    std::size_t best_depth = 0, best_local_depth = 0;
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t d = shards_[s].depth.load();
      if (d > best_depth) {
        best = s;
        best_depth = d;
      }
      if (have_nodes && shard_nodes_[s] == own_node && d > best_local_depth) {
        best_local = s;
        best_local_depth = d;
      }
    }
    return best_local < n ? best_local : best;
  }

  bool has_space() const {
    for (const auto& sh : shards_) {
      if (sh.depth.load() < shard_capacity_) return true;
    }
    return false;
  }

  std::vector<Shard> shards_;
  std::size_t shard_capacity_ = 1;
  /// NUMA node per shard (empty = no topology hint); written once before
  /// workers start, read-only afterwards.
  std::vector<int> shard_nodes_;
  std::atomic<std::uint64_t> next_ticket_{0};
  std::atomic<std::size_t> total_items_{0};
  std::atomic<std::size_t> depth_high_water_{0};
  std::atomic<bool> closed_{false};
  /// Fresh pushes route round-robin over shards [0, route_limit_); starts
  /// at "all shards" and tracks the elastic pool's live worker count.
  std::atomic<std::size_t> route_limit_{shards_.size()};

  // Sleep/wake layer: taken only when a producer or worker must park.
  std::mutex park_mutex_;
  std::condition_variable park_cv_;    ///< pop-side waiters (empty intake)
  std::condition_variable space_cv_;   ///< push-side waiters (full intake)
  std::atomic<int> pop_sleepers_{0};
  std::atomic<int> space_sleepers_{0};
};

}  // namespace nc::codec
