#include "codec/spill.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "util/serialize.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace nc::codec {

namespace {
constexpr char kSpillKind[4] = {'S', 'P', 'I', 'L'};
// "NCMP" "SPIL" u32 version u32 codec_id
constexpr std::uint64_t kSegmentHeaderBytes = 16;
constexpr std::uint64_t kRecordOverheadBytes = 16 + 4;  // header + crc
// Spilled wedges are at most a few MB each; the cap — checked BEFORE the
// payload allocation — keeps a corrupt length field from driving a giant
// allocation ahead of the CRC check, while leaving orders of magnitude of
// headroom over any real record.
constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t{1} << 28;  // 256 MiB
// Spilled wedge shape caps, mirroring WedgeEnvelope deserialization.
constexpr std::uint64_t kMaxWedgeRank = 8;
constexpr std::int64_t kMaxWedgeDim = std::int64_t{1} << 20;
constexpr std::int64_t kMaxWedgeElems = std::int64_t{1} << 28;

std::uint64_t process_id() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}
}  // namespace

SpillRecord read_spill_record(std::istream& is) {
  // The 16-byte (seq, payload_len) header is read raw so the CRC can cover
  // exactly the bytes on disk.
  char hdr[16];
  is.read(hdr, sizeof(hdr));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(hdr))) {
    throw util::SerializeError("spill record truncated");
  }
  std::uint64_t seq = 0, len = 0;
  std::memcpy(&seq, hdr, 8);
  std::memcpy(&len, hdr + 8, 8);
  if (len > kMaxPayloadBytes) {
    throw util::SerializeError("spill record length implausible: " +
                               std::to_string(len));
  }
  SpillRecord rec;
  rec.seq = seq;
  rec.payload.resize(static_cast<std::size_t>(len));
  util::read_bytes(is, rec.payload.data(), rec.payload.size());
  const std::uint32_t stored = util::read_u32(is);
  std::uint32_t crc = util::crc32(hdr, sizeof(hdr));
  crc = util::crc32(rec.payload.data(), rec.payload.size(), crc);
  if (crc != stored) {
    throw util::SerializeError("spill record CRC mismatch (seq " +
                               std::to_string(seq) + ")");
  }
  return rec;
}

std::string write_spilled_wedge(const core::Tensor& wedge) {
  std::ostringstream os;
  const auto& shape = wedge.shape();
  util::write_u64(os, shape.size());
  for (const auto d : shape) util::write_i64(os, d);
  util::write_bytes(os, wedge.data(),
                    static_cast<std::size_t>(wedge.numel()) * sizeof(float));
  return os.str();
}

core::Tensor read_spilled_wedge(const std::string& bytes) {
  std::istringstream is(bytes);
  const std::uint64_t rank = util::read_u64(is);
  if (rank > kMaxWedgeRank) {
    throw util::SerializeError("spilled wedge rank implausible: " +
                               std::to_string(rank));
  }
  core::Shape shape(rank);
  std::int64_t numel = 1;
  for (auto& d : shape) {
    d = util::read_i64(is);
    if (d <= 0 || d > kMaxWedgeDim) {
      throw util::SerializeError("spilled wedge dim implausible: " +
                                 std::to_string(d));
    }
    if (numel > kMaxWedgeElems / d) {
      throw util::SerializeError("spilled wedge element count implausible");
    }
    numel *= d;
  }
  core::Tensor wedge(std::move(shape));
  util::read_bytes(is, wedge.data(),
                   static_cast<std::size_t>(numel) * sizeof(float));
  return wedge;
}

SpillLog::SpillLog(SpillOptions options) : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw util::SerializeError("spill dir not set");
  }
  if (options_.segment_bytes == 0) options_.segment_bytes = 1;  // roll per record
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec || !std::filesystem::is_directory(options_.dir)) {
    throw util::SerializeError("cannot create spill dir '" + options_.dir +
                               "': " + (ec ? ec.message() : "not a directory"));
  }
  // Per-process, per-instance file prefix so two logs pointed at the same
  // directory — in one process or in several — never share a segment name.
  static std::atomic<std::uint64_t> instance{0};
  prefix_ = "spill-" + std::to_string(process_id()) + "-" +
            std::to_string(instance.fetch_add(1)) + "-";
}

SpillLog::~SpillLog() { close(); }

std::string SpillLog::segment_path(std::size_t id) const {
  char num[16];
  std::snprintf(num, sizeof(num), "%06zu", id);
  return options_.dir + "/" + prefix_ + num + ".seg";
}

void SpillLog::roll_segment_locked() {
  if (out_.is_open()) out_.close();
  out_.clear();
  Segment seg;
  // Create the file exclusively and never truncate: a name already on disk
  // (kept segments of an earlier process that had the same pid) is skipped.
  while (true) {
    seg.id = next_segment_id_++;
    seg.path = segment_path(seg.id);
    if (std::FILE* created = std::fopen(seg.path.c_str(), "wbx")) {
      (void)std::fclose(created);  // still empty; out_ reopens it below
      break;
    }
    std::error_code ec;
    if (!std::filesystem::exists(seg.path, ec)) {
      throw util::SerializeError("cannot create spill segment: " + seg.path);
    }
  }
  out_.open(seg.path, std::ios::binary | std::ios::in | std::ios::out);
  if (!out_) {
    out_.clear();
    std::error_code ec;
    std::filesystem::remove(seg.path, ec);
    throw util::SerializeError("cannot open spill segment: " + seg.path);
  }
  util::write_magic(out_, kSpillKind, kFormatVersion);
  util::write_u32(out_, options_.codec_id);
  out_.flush();
  if (!out_) {
    out_.close();
    out_.clear();
    // The file exists but was never tracked in segments_ — delete it now or
    // nothing ever will (reap and close() only walk segments_).
    std::error_code ec;
    std::filesystem::remove(seg.path, ec);
    throw util::SerializeError("spill segment header write failed: " + seg.path);
  }
  seg.bytes = kSegmentHeaderBytes;
  bytes_on_disk_ += kSegmentHeaderBytes;
  if (bytes_on_disk_ > bytes_hwm_) bytes_hwm_ = bytes_on_disk_;
  segments_.push_back(std::move(seg));
}

void SpillLog::append(std::uint64_t seq, const std::string& payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) throw util::SerializeError("spill log is closed");
  const std::uint64_t rec_bytes = kRecordOverheadBytes + payload.size();
  const bool roll = !out_.is_open() ||
                    segments_.back().bytes >= options_.segment_bytes;
  // Quota check up front: an over-quota append must leave the log exactly
  // as it was (the caller counts the wedge as dropped and moves on).
  const std::uint64_t grow = rec_bytes + (roll ? kSegmentHeaderBytes : 0);
  if (options_.max_bytes != 0 && bytes_on_disk_ + grow > options_.max_bytes) {
    throw util::SerializeError(
        "spill quota exceeded (" + std::to_string(bytes_on_disk_) + " + " +
        std::to_string(grow) + " > " + std::to_string(options_.max_bytes) +
        " bytes)");
  }
  if (roll) roll_segment_locked();
  Segment& tail = segments_.back();
  const std::uint64_t offset = tail.bytes;
  char hdr[16];
  const std::uint64_t len = payload.size();
  std::memcpy(hdr, &seq, 8);
  std::memcpy(hdr + 8, &len, 8);
  out_.write(hdr, sizeof(hdr));
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  std::uint32_t crc = util::crc32(hdr, sizeof(hdr));
  crc = util::crc32(payload.data(), payload.size(), crc);
  util::write_u32(out_, crc);
  // Flush before acknowledging: a record the caller counts as spilled must
  // be bytes a reader can see.
  out_.flush();
  if (!out_) {
    // Short write: the tail now ends in a partial record.  Poison only the
    // tail — close the writer so the next append rolls to a fresh segment;
    // every record already indexed lives below `offset` and stays readable.
    out_.close();
    out_.clear();
    throw util::SerializeError("spill write failed: " + tail.path);
  }
  tail.bytes += rec_bytes;
  ++tail.pending;
  bytes_on_disk_ += rec_bytes;
  if (bytes_on_disk_ > bytes_hwm_) bytes_hwm_ = bytes_on_disk_;
  index_.push_back(PendingRec{seq, tail.id, offset});
}

std::optional<SpillLog::Popped> SpillLog::pop() {
  PendingRec rec;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.empty()) return std::nullopt;
    rec = index_.front();
    index_.pop_front();
    for (const auto& s : segments_) {
      if (s.id == rec.segment_id) {
        path = s.path;
        break;
      }
    }
  }
  Popped out;
  out.seq = rec.seq;
  if (!path.empty()) {
    // The record read runs UNLOCKED: an appender holding the pipeline's
    // submit mutex blocks on mutex_, so holding it across disk I/O would
    // leak replay latency into the real-time submit path.  Safe because
    // pop has a single consumer (class comment): nobody else removes the
    // segment before the post-read bookkeeping below, and appends only
    // ever extend the file past this record.  A fresh read handle per pop
    // keeps the writer's ofstream and the reader decoupled (no sticky EOF
    // state on a growing tail).
    std::ifstream in(path, std::ios::binary);
    if (in) {
      in.seekg(static_cast<std::streamoff>(rec.offset));
      try {
        SpillRecord parsed = read_spill_record(in);
        if (parsed.seq == rec.seq) {
          out.payload = std::move(parsed.payload);
          out.ok = true;
        }
      } catch (const util::SerializeError&) {
        // out.ok stays false: the caller knows which seq was lost.
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& s : segments_) {
      if (s.id == rec.segment_id) {
        if (s.pending > 0) --s.pending;
        break;
      }
    }
    reap_drained_segments_locked();
  }
  return out;
}

void SpillLog::reap_drained_segments_locked() {
  if (options_.keep) return;
  while (!segments_.empty() && segments_.front().pending == 0) {
    // Never delete the open write tail out from under the ofstream.
    if (segments_.front().id == segments_.back().id && out_.is_open()) break;
    std::error_code ec;
    std::filesystem::remove(segments_.front().path, ec);
    bytes_on_disk_ -= std::min(bytes_on_disk_, segments_.front().bytes);
    segments_.pop_front();
  }
}

std::size_t SpillLog::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

std::uint64_t SpillLog::bytes_on_disk() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_on_disk_;
}

std::uint64_t SpillLog::bytes_hwm() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_hwm_;
}

std::vector<std::string> SpillLog::segment_paths() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> paths;
  paths.reserve(segments_.size());
  for (const auto& seg : segments_) paths.push_back(seg.path);
  return paths;
}

void SpillLog::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  closed_ = true;
  if (out_.is_open()) out_.close();
  if (!options_.keep) {
    for (const auto& seg : segments_) {
      std::error_code ec;
      std::filesystem::remove(seg.path, ec);
    }
    segments_.clear();
    index_.clear();
    bytes_on_disk_ = 0;
  }
}

SpillSegmentHeader read_spill_segment_header(std::istream& is) {
  SpillSegmentHeader hdr;
  hdr.version = util::read_magic(is, kSpillKind);
  if (hdr.version != SpillLog::kFormatVersion) {
    throw util::SerializeError(
        "unsupported spill segment version " + std::to_string(hdr.version) +
        " (expected " + std::to_string(SpillLog::kFormatVersion) + ")");
  }
  hdr.codec_id = util::read_u32(is);
  return hdr;
}

SpillReader::SpillReader(const std::string& path,
                         std::uint32_t expected_codec_id)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) {
    throw util::SerializeError("cannot open spill segment: " + path);
  }
  header_ = read_spill_segment_header(in_);
  // Untagged on either side (pre-tagging writer, or a reader that does not
  // care) skips the gate; two non-zero ids must agree.
  if (header_.codec_id != 0 && expected_codec_id != 0 &&
      header_.codec_id != expected_codec_id) {
    throw util::SerializeError(
        "spill segment '" + path + "' was written under codec id " +
        std::to_string(header_.codec_id) + " but replay expects codec id " +
        std::to_string(expected_codec_id));
  }
}

bool SpillReader::next(SpillRecord& out) {
  if (in_.peek() == std::char_traits<char>::eof()) return false;
  out = read_spill_record(in_);
  return true;
}

}  // namespace nc::codec
