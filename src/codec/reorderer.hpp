/// \file reorderer.hpp
/// \brief The one in-order emission cursor: completions arrive out of order,
///        the sink sees them in sequence order.
///
/// Both ordered consumers of the worker pool use it: `StreamPipeline` in
/// ordered mode (one cursor over the pipeline's sequence space) and
/// `CompressionService` (one cursor per session).  The rule it enforces:
///
///  * sink calls never overlap, and they see strictly increasing seqs;
///  * a failed or shed item is a `nullopt` gap: it advances the cursor and
///    reaches no sink;
///  * a throwing sink is logged and swallowed.  Its item is lost, but the
///    cursor has already moved past it, so the stream keeps flowing.
///
/// Locking: the Reorderer has no mutex of its own.  Every call runs under
/// the caller's lock, which also guards whatever else the caller keeps next
/// to the cursor (a session's staging queue, say), so one lock covers both.
/// `drain` releases that lock around each sink call, so a slow sink never
/// blocks the threads that `put`; a one-drainer flag keeps the calls
/// serialized, and a thread that finds a drain running leaves its new
/// entries to that drainer.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "util/logging.hpp"

namespace nc::codec {

template <typename T>
class Reorderer {
 public:
  /// Record the outcome of `seq`: a value to emit, or nullopt for a gap.  A
  /// seq below the cursor can never be emitted again and is ignored.
  void put(std::uint64_t seq, std::optional<T> value) {
    if (seq >= next_) pending_.emplace(seq, std::move(value));
  }

  /// Emit the ready prefix through `sink(seq, T&&)`, unlocking `lock`
  /// around each call.  Returns at once when another thread is draining.
  template <typename Sink>
  void drain(std::unique_lock<std::mutex>& lock, Sink&& sink) {
    if (draining_) return;
    draining_ = true;
    while (!pending_.empty() && pending_.begin()->first == next_) {
      auto node = pending_.extract(pending_.begin());
      ++next_;
      if (!node.mapped()) continue;
      lock.unlock();
      try {
        sink(node.key(), std::move(*node.mapped()));
      } catch (const std::exception& e) {
        NC_LOG_WARN << "ordered sink failed for item " << node.key() << ": "
                    << e.what();
      }
      lock.lock();
    }
    draining_ = false;
  }

  /// Every seq below `end` has been emitted or skipped, and no drain is
  /// still running a sink call.
  bool done(std::uint64_t end) const { return next_ >= end && !draining_; }

 private:
  std::map<std::uint64_t, std::optional<T>> pending_;
  std::uint64_t next_ = 0;  ///< the cursor: next seq to emit
  bool draining_ = false;
};

}  // namespace nc::codec
