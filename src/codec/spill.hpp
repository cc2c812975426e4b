/// \file spill.hpp
/// \brief Spill-to-disk overflow tier for the streaming intake: a segmented
///        append-only record log plus a standalone recovery reader.
///
/// When the bounded intake saturates, the pipeline used to *drop* wedges —
/// unacceptable for a DAQ path whose traffic is bursty but whose data is
/// irreplaceable.  `SpillLog` is the secondary tier that makes backpressure
/// lossless: overflow wedges are serialized raw into append-only segment
/// files and replayed into the intake once depth falls back below a
/// low-water mark (StreamPipeline owns the drainer; this class owns the
/// bytes).
///
/// On-disk format (version-gated like checkpoints, see util/serialize.hpp):
///
///   segment   := magic("NCMP" "SPIL", u32 version) u32 codec_id record*
///   record    := u64 seq | u64 payload_len | payload bytes | u32 crc32
///
/// v2 added the codec_id header field: the wedge codec the spilling
/// pipeline was configured with (WedgeCodec wire id; 0 = untagged).  A
/// keep-mode log written under one codec and replayed under another used to
/// feed foreign payloads to the decoder and fail per-wedge downstream;
/// SpillReader now rejects the mismatch at open, before a single payload is
/// decoded.
///
/// The CRC covers the 16-byte little-endian (seq, payload_len) header plus
/// the payload, so a flipped bit anywhere in a record — header or body —
/// fails that record loudly instead of replaying garbage.  Records are
/// opaque byte strings: the pipeline's SpillCodec decides how a wedge
/// becomes bytes, the log only guarantees integrity and FIFO order.
///
/// Segmenting: the writer rolls to a new segment file every
/// `segment_bytes`.  Files are named `spill-<pid>-<instance>-<id>.seg` and
/// created exclusively — a name already on disk is skipped, so a log never
/// truncates segments another log (or an earlier process) kept.  A
/// fully-replayed segment that is no longer the write tail is deleted
/// immediately (unless `keep`), so steady-state disk usage is bounded by
/// the pending backlog plus one segment of slack.  A failed
/// record write (disk full, I/O error) poisons only the tail segment: the
/// writer closes it and rolls on the next append, and every record already
/// indexed stays replayable.
///
/// Concurrency: public methods are thread-safe behind one mutex, with one
/// restriction — `pop` supports a single consumer (StreamPipeline's
/// drainer), which lets it perform the record's disk read *outside* the
/// mutex so replay I/O never stalls an appender (and, transitively, the
/// pipeline's real-time submit path).  `pop` is served from an in-memory
/// FIFO index of (seq, segment, offset) — O(pending) small — so even a
/// corrupt record still reports *which* sequence number was lost, and the
/// pipeline's owner can settle that loss instead of stalling forever.
///
/// `SpillReader` is the offline half: it parses one segment file from
/// scratch (no index), validating magic, version and per-record CRC, for
/// replay-after-close recovery and the fault-injection tests.
///
/// `write_spilled_wedge` / `read_spilled_wedge` are the one raw-wedge record
/// body, shared by StreamCompressor's spill codec and CompressionService's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/tensor.hpp"

namespace nc::codec {

struct SpillOptions {
  std::string dir;  ///< segment directory (created if missing)
  /// Roll to a new segment file after this many bytes (min one record).
  std::size_t segment_bytes = std::size_t{4} << 20;
  /// Cap on total on-disk spill bytes (0 = unbounded).  An append that
  /// would exceed it throws SerializeError — the disk-full containment
  /// path; callers count the wedge as dropped.
  std::size_t max_bytes = 0;
  /// Keep fully-replayed segments on disk (audit / replay-after-close)
  /// instead of deleting them as they drain.
  bool keep = false;
  /// Codec id stamped into every segment header (0 = untagged): identifies
  /// the wedge codec whose pipeline wrote this log, so replay under a
  /// different codec is rejected at open instead of per-wedge downstream.
  std::uint32_t codec_id = 0;
};

/// One logical spill record: the wedge's pipeline sequence number and its
/// serialized bytes.
struct SpillRecord {
  std::uint64_t seq = 0;
  std::string payload;
};

/// Parse one record at the current stream position (after the segment
/// header).  Throws util::SerializeError on truncation, an implausible
/// length, or a CRC mismatch.
SpillRecord read_spill_record(std::istream& is);

/// Parsed segment header fields (everything after the magic).
struct SpillSegmentHeader {
  std::uint32_t version = 0;
  std::uint32_t codec_id = 0;  ///< writing pipeline's wedge codec (0 = untagged)
};

/// Validate a segment's magic + version header and return the parsed
/// fields.  Throws util::SerializeError on a bad magic, an unsupported
/// version, or truncation.  Shared by SpillReader and the fuzz harness so
/// in-memory fuzzing drives exactly the file-open code path.
SpillSegmentHeader read_spill_segment_header(std::istream& is);

/// Raw wedge body of a spill record: u64 rank, i64 dims, fp32 data.
/// Spilling happens because the encoder cannot keep up, so the bytes cost no
/// model forward.
std::string write_spilled_wedge(const core::Tensor& wedge);

/// Inverse of write_spilled_wedge.  Throws util::SerializeError on
/// truncation or an implausible shape (rank > 8, a dim outside
/// [1, 2^20], more than 2^28 elements), before allocating the tensor.
core::Tensor read_spilled_wedge(const std::string& bytes);

/// Disk-backed FIFO of spill records (see file comment).
class SpillLog {
 public:
  static constexpr std::uint32_t kFormatVersion = 2;  ///< v2: codec_id header

  /// Creates `options.dir` if missing; throws util::SerializeError when the
  /// directory cannot be created or written.
  explicit SpillLog(SpillOptions options);
  ~SpillLog();

  SpillLog(const SpillLog&) = delete;
  SpillLog& operator=(const SpillLog&) = delete;

  /// Append one record (flushed before return so a reader — or a crash
  /// post-mortem — sees every acknowledged record).  Throws
  /// util::SerializeError on an I/O failure or when `max_bytes` would be
  /// exceeded; a throw leaves the log usable and the record unrecorded.
  void append(std::uint64_t seq, const std::string& payload);

  /// Oldest pending record, popped from the index.  `ok` is false when the
  /// record's bytes failed to read back (truncation, CRC mismatch) — the
  /// seq is still valid, so the caller can account the loss per sequence
  /// number.  nullopt when nothing is pending.
  struct Popped {
    std::uint64_t seq = 0;
    std::string payload;
    bool ok = false;
  };
  std::optional<Popped> pop();

  /// Records appended but not yet popped.
  std::size_t pending() const;
  /// Current total size of the live segment files.
  std::uint64_t bytes_on_disk() const;
  /// Deepest bytes_on_disk has ever been (StreamStats::spill_bytes_hwm).
  std::uint64_t bytes_hwm() const;
  /// Live segment files, oldest first (tests / recovery tooling).
  std::vector<std::string> segment_paths() const;

  /// Close the writer; deletes every remaining segment unless `keep`.
  /// Idempotent; called by the destructor.
  void close();

 private:
  struct PendingRec {
    std::uint64_t seq = 0;
    std::size_t segment_id = 0;
    std::uint64_t offset = 0;  ///< record start within the segment
  };
  struct Segment {
    std::size_t id = 0;
    std::string path;
    std::uint64_t bytes = 0;
    std::size_t pending = 0;  ///< records appended - records popped
  };

  void roll_segment_locked();
  void reap_drained_segments_locked();
  std::string segment_path(std::size_t id) const;

  SpillOptions options_;
  std::string prefix_;  ///< per process and instance, so logs may share a dir
  mutable std::mutex mutex_;
  std::deque<PendingRec> index_;
  std::deque<Segment> segments_;  ///< live segments, oldest first
  std::ofstream out_;             ///< tail writer (segments_.back())
  std::size_t next_segment_id_ = 0;
  std::uint64_t bytes_on_disk_ = 0;
  std::uint64_t bytes_hwm_ = 0;
  bool closed_ = false;
};

/// Sequential reader over one segment file: validates magic + version in
/// the constructor and per-record CRC in next().  Throws
/// util::SerializeError on any corruption; next() returns false at a clean
/// end of file.
class SpillReader {
 public:
  /// Opens and validates the segment.  When `expected_codec_id` is non-zero
  /// and the segment is tagged (header codec_id non-zero), a mismatch
  /// throws util::SerializeError — replaying one codec's payloads into
  /// another's decoder fails here, at open, not per-wedge downstream.
  explicit SpillReader(const std::string& path,
                       std::uint32_t expected_codec_id = 0);

  bool next(SpillRecord& out);

  /// The validated segment header (codec id etc.).
  const SpillSegmentHeader& header() const { return header_; }

 private:
  std::ifstream in_;
  std::string path_;
  SpillSegmentHeader header_;
};

}  // namespace nc::codec
