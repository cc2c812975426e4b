/// Spill tier: the segmented on-disk overflow log (SpillLog/SpillReader)
/// and its integration into StreamPipeline.
///
/// Two layers under test.  (1) The log itself, with fault injection:
/// truncated/short-written segments, flipped CRC bytes, unknown format
/// versions and a full disk must all surface as SerializeError or counted
/// drops — never UB, silent garbage, or a hung pipeline; likewise the raw
/// wedge body both spill codecs write, on implausible shapes.  (2) The lossless
/// backpressure contract: a burst far beyond the intake bound completes
/// with zero drops, every spilled wedge replayed, and ordered output
/// bit-identical to an unbounded run (the spill drainer races workers,
/// producers and finish(), so this suite also runs under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codec/spill.hpp"
#include "codec/stream.hpp"
#include "codec/stream_pipeline.hpp"
#include "tests/stream_test_utils.hpp"
#include "util/serialize.hpp"

namespace {

namespace fs = std::filesystem;
using nc::codec::BcaeWedgeCodec;
using nc::codec::WedgeEnvelope;
using nc::codec::SpillLog;
using nc::codec::SpillOptions;
using nc::codec::SpillReader;
using nc::codec::SpillRecord;
using nc::codec::StreamCompressor;
using nc::codec::StreamOptions;
using nc::core::Mode;
using nc::core::Tensor;
using nc::testutil::IntPipeline;
using nc::testutil::raw_wedge;
using nc::util::SerializeError;

std::string fresh_dir() { return nc::testutil::fresh_test_dir("nc-spill-"); }

std::string payload_for(int i) {
  // Variable lengths so offsets aren't accidentally aligned.
  return std::string(static_cast<std::size_t>(7 + i % 5),
                     static_cast<char>('a' + i % 26)) +
         std::to_string(i);
}

/// Segment files currently in `dir`, oldest first (the %06zu numbering
/// sorts lexicographically).
std::vector<std::string> segment_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Spill codec for the synthetic int pipeline.
IntPipeline::SpillCodec int_spill_codec() {
  return {[](const int& v) {
            return std::string(reinterpret_cast<const char*>(&v), sizeof(int));
          },
          [](std::uint64_t, const std::string& s) {
            if (s.size() != sizeof(int)) {
              throw SerializeError("spilled int payload size mismatch");
            }
            int v = 0;
            std::memcpy(&v, s.data(), sizeof(int));
            return v;
          }};
}

// ---------------------------------------------------------------------------
// SpillLog as a disk-backed FIFO
// ---------------------------------------------------------------------------

TEST(SpillLog, RoundTripsRecordsInFifoOrder) {
  SpillOptions opt;
  opt.dir = fresh_dir();
  SpillLog log(opt);
  const int n = 25;
  for (int i = 0; i < n; ++i) log.append(static_cast<std::uint64_t>(i), payload_for(i));
  EXPECT_EQ(log.pending(), static_cast<std::size_t>(n));
  EXPECT_GT(log.bytes_hwm(), 0u);
  for (int i = 0; i < n; ++i) {
    const auto rec = log.pop();
    ASSERT_TRUE(rec.has_value());
    EXPECT_TRUE(rec->ok);
    EXPECT_EQ(rec->seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(rec->payload, payload_for(i));
  }
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_FALSE(log.pop().has_value());
}

TEST(SpillLog, SegmentsRollAndDrainedOnesAreReaped) {
  SpillOptions opt;
  opt.dir = fresh_dir();
  opt.segment_bytes = 64;  // a couple of records per segment
  SpillLog log(opt);
  const int n = 20;
  for (int i = 0; i < n; ++i) log.append(static_cast<std::uint64_t>(i), payload_for(i));
  EXPECT_GT(log.segment_paths().size(), 3u);  // rolling actually happened
  for (int i = 0; i < n; ++i) {
    const auto rec = log.pop();
    ASSERT_TRUE(rec.has_value() && rec->ok);
    EXPECT_EQ(rec->payload, payload_for(i));  // FIFO across segment boundaries
  }
  // Drained non-tail segments were deleted as replay progressed; at most
  // the write tail remains until close().
  EXPECT_LE(log.segment_paths().size(), 1u);
  log.close();
  EXPECT_TRUE(segment_files(opt.dir).empty());
}

TEST(SpillLog, QuotaExceededThrowsAndLeavesLogUsable) {
  SpillOptions opt;
  opt.dir = fresh_dir();
  const std::string payload = payload_for(0);
  // Room for the header plus exactly two records.
  opt.max_bytes = 16 + 2 * (20 + payload.size());
  SpillLog log(opt);
  log.append(0, payload);
  log.append(1, payload);
  EXPECT_THROW(log.append(2, payload), SerializeError);
  // The over-quota append left everything already spilled intact…
  auto rec = log.pop();
  ASSERT_TRUE(rec.has_value() && rec->ok);
  EXPECT_EQ(rec->seq, 0u);
  rec = log.pop();
  ASSERT_TRUE(rec.has_value() && rec->ok);
  EXPECT_EQ(rec->seq, 1u);
  EXPECT_EQ(log.pending(), 0u);
}

TEST(SpillLog, UnwritableDirThrowsSerializeError) {
  const std::string dir = fresh_dir();
  fs::create_directories(dir);
  std::ofstream(dir + "/file").put('x');
  SpillOptions opt;
  opt.dir = dir + "/file/nested";  // a path under a regular file
  EXPECT_THROW(SpillLog log(opt), SerializeError);
}

// ---------------------------------------------------------------------------
// Segment naming: a log never truncates a file it did not create
// ---------------------------------------------------------------------------

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Write a segment of `n` records (payload_for(i), seqs 0..n-1) by hand, in
/// the on-disk format, without constructing a SpillLog.
void write_segment_by_hand(const std::string& path, int n) {
  std::ofstream out(path, std::ios::binary);
  nc::util::write_magic(out, "SPIL", SpillLog::kFormatVersion);
  nc::util::write_u32(out, 0);  // untagged
  for (int i = 0; i < n; ++i) {
    const std::string payload = payload_for(i);
    const std::uint64_t seq = static_cast<std::uint64_t>(i);
    const std::uint64_t len = payload.size();
    char hdr[16];
    std::memcpy(hdr, &seq, 8);
    std::memcpy(hdr + 8, &len, 8);
    out.write(hdr, sizeof(hdr));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    const std::uint32_t crc = nc::util::crc32(hdr, sizeof(hdr));
    nc::util::write_u32(out,
                        nc::util::crc32(payload.data(), payload.size(), crc));
  }
}

/// Replay `path` with SpillReader and expect exactly write_segment_by_hand's
/// records.
void expect_hand_written_records(const std::string& path, int n) {
  SpillReader reader(path);
  SpillRecord rec;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(rec.payload, payload_for(i));
  }
  EXPECT_FALSE(reader.next(rec));
}

TEST(SpillLog, PreExistingSegmentSurvivesANewLogByteForByte) {
  // A segment another process kept, under the name a process's first log
  // picked before segment names carried the pid.  Written by hand, so that
  // when this test runs alone the log under test is its process's first.
  const std::string dir = fresh_dir();
  fs::create_directories(dir);
  const std::string kept = dir + "/spill-0-000000.seg";
  write_segment_by_hand(kept, 5);
  const std::string before = file_bytes(kept);
  {
    SpillOptions opt;
    opt.dir = dir;
    opt.segment_bytes = 1;  // roll per record: several fresh names
    SpillLog log(opt);
    for (int i = 0; i < 4; ++i) {
      log.append(static_cast<std::uint64_t>(100 + i), payload_for(i));
    }
    for (int i = 0; i < 4; ++i) {
      const auto rec = log.pop();
      ASSERT_TRUE(rec.has_value() && rec->ok);
      EXPECT_EQ(rec->seq, static_cast<std::uint64_t>(100 + i));
    }
  }  // close() deletes this log's own segments only
  EXPECT_EQ(file_bytes(kept), before);
  EXPECT_EQ(segment_files(dir), std::vector<std::string>{kept});
  expect_hand_written_records(kept, 5);
}

TEST(SpillLog, TakenSegmentNameIsSkippedNotTruncated) {
  // The per-process prefix makes a clash rare (an earlier process with the
  // same pid); when the next name is taken anyway the log moves past it.
  const std::string dir = fresh_dir();
  SpillOptions opt;
  opt.dir = dir;
  opt.segment_bytes = 1;  // roll per record
  SpillLog log(opt);
  log.append(0, payload_for(0));
  const std::string first = log.segment_paths().front();
  ASSERT_EQ(first.substr(first.size() - 10), "000000.seg");
  const std::string taken = first.substr(0, first.size() - 10) + "000001.seg";
  write_segment_by_hand(taken, 3);
  const std::string before = file_bytes(taken);
  log.append(1, payload_for(1));
  log.append(2, payload_for(2));
  const auto paths = log.segment_paths();
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(std::count(paths.begin(), paths.end(), taken), 0);
  for (int i = 0; i < 3; ++i) {
    const auto rec = log.pop();
    ASSERT_TRUE(rec.has_value() && rec->ok);
    EXPECT_EQ(rec->seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(rec->payload, payload_for(i));
  }
  log.close();
  EXPECT_EQ(file_bytes(taken), before);
  EXPECT_EQ(segment_files(dir), std::vector<std::string>{taken});
  expect_hand_written_records(taken, 3);
}

// ---------------------------------------------------------------------------
// SpillReader fault injection
// ---------------------------------------------------------------------------

/// Write `n` records through a keep-mode SpillLog and return the single
/// segment path (segment_bytes large enough not to roll).
std::string write_kept_segment(const std::string& dir, int n) {
  SpillOptions opt;
  opt.dir = dir;
  opt.keep = true;
  SpillLog log(opt);
  for (int i = 0; i < n; ++i) log.append(static_cast<std::uint64_t>(i), payload_for(i));
  log.close();
  const auto files = segment_files(dir);
  EXPECT_EQ(files.size(), 1u);
  return files.front();
}

TEST(SpillReader, RoundTripsAKeptSegmentBitExact) {
  const std::string dir = fresh_dir();
  const int n = 12;
  const std::string path = write_kept_segment(dir, n);
  SpillReader reader(path);
  SpillRecord rec;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(rec.payload, payload_for(i));
  }
  EXPECT_FALSE(reader.next(rec));  // clean EOF, not an error
}

TEST(SpillReader, TruncatedSegmentThrowsNotUB) {
  // Cut a kept 6-record segment at every byte offset, as a crash mid-write
  // would: exactly the records wholly before the cut read back bit-exact; a
  // cut at the end of the segment header or at a record boundary is a clean
  // EOF; any other cut, inside the segment header included, throws.
  const std::string dir = fresh_dir();
  const int n = 6;
  const std::string whole = file_bytes(write_kept_segment(dir, n));
  std::vector<std::size_t> ends{16};  // segment header end, then each record's
  for (int i = 0; i < n; ++i) {
    ends.push_back(ends.back() + 20 + payload_for(i).size());
  }
  ASSERT_EQ(ends.back(), whole.size());
  const std::string path = dir + "/cut.seg";
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    SCOPED_TRACE("segment cut at byte " + std::to_string(cut));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(whole.data(), static_cast<std::streamsize>(cut));
    }
    if (cut < ends.front()) {
      EXPECT_THROW(SpillReader reader(path), SerializeError);
      continue;
    }
    const auto complete = static_cast<int>(
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin() - 1);
    SpillReader reader(path);
    SpillRecord rec;
    for (int i = 0; i < complete; ++i) {
      ASSERT_TRUE(reader.next(rec));
      EXPECT_EQ(rec.seq, static_cast<std::uint64_t>(i));
      EXPECT_EQ(rec.payload, payload_for(i));
    }
    if (cut == ends[static_cast<std::size_t>(complete)]) {
      EXPECT_FALSE(reader.next(rec));
    } else {
      EXPECT_THROW(reader.next(rec), SerializeError);
    }
  }
}

TEST(SpillReader, FlippedPayloadByteFailsCrc) {
  const std::string dir = fresh_dir();
  const std::string path = write_kept_segment(dir, 1);
  {
    // Record starts after the 16-byte segment header; its payload after the
    // 16-byte record header.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(16 + 16);
    char c = static_cast<char>(f.get());
    f.seekp(16 + 16);
    f.put(static_cast<char>(c ^ 0x40));
  }
  SpillReader reader(path);
  SpillRecord rec;
  EXPECT_THROW(reader.next(rec), SerializeError);
}

TEST(SpillReader, ZeroByteSegmentRejected) {
  // A zero-byte file (open() succeeded, the header write never landed —
  // e.g. disk filled between open and flush) must fail the magic check,
  // not read uninitialized garbage or report a clean empty log.
  const std::string dir = fresh_dir();
  fs::create_directories(dir);
  const std::string path = dir + "/empty.seg";
  { std::ofstream f(path, std::ios::binary); }
  ASSERT_TRUE(fs::exists(path));
  ASSERT_EQ(fs::file_size(path), 0u);
  EXPECT_THROW(SpillReader reader(path), SerializeError);
}

TEST(SpillReader, TruncatedMidSegmentHeaderRejected) {
  // Chop inside the 16-byte segment header itself (mid-magic, mid-version
  // and mid-codec-id): the constructor must throw, as existing tests only
  // cover cuts inside a record.
  const std::string dir = fresh_dir();
  const std::string path = write_kept_segment(dir, 1);
  for (const std::uintmax_t keep : {5u, 10u, 14u}) {
    fs::resize_file(path, keep);
    EXPECT_THROW(SpillReader reader(path), SerializeError)
        << "segment truncated to " << keep << " bytes must not parse";
  }
}

TEST(SpillReader, UnknownVersionRejected) {
  const std::string dir = fresh_dir();
  const std::string path = write_kept_segment(dir, 1);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);  // the u32 version that follows "NCMP" "SPIL"
    f.put(static_cast<char>(0x7F));
  }
  EXPECT_THROW(SpillReader reader(path), SerializeError);
}

/// write_kept_segment with a codec id stamped into the segment header (the
/// v2 format gate under test below).
std::string write_tagged_segment(const std::string& dir, std::uint32_t codec_id,
                                 int n) {
  // fresh_dir() only cleans the exact per-test path; callers pass suffixed
  // variants too, so scrub here or a prior run's segment doubles the count.
  fs::remove_all(dir);
  SpillOptions opt;
  opt.dir = dir;
  opt.keep = true;
  opt.codec_id = codec_id;
  SpillLog log(opt);
  for (int i = 0; i < n; ++i) {
    log.append(static_cast<std::uint64_t>(i), payload_for(i));
  }
  log.close();
  const auto files = segment_files(dir);
  EXPECT_EQ(files.size(), 1u);
  return files.front();
}

TEST(SpillReader, CodecIdMismatchRejectedAtOpen) {
  // A keep-mode log written under one --codec and replayed under another
  // used to feed foreign payloads to the decoder and fail per-wedge as
  // wedges_failed; the v2 header gate must reject it at open instead.
  const std::string dir = fresh_dir();
  const std::string path = write_tagged_segment(dir, /*codec_id=*/3, 2);
  EXPECT_THROW(SpillReader reader(path, /*expected_codec_id=*/16),
               SerializeError);
}

TEST(SpillReader, CodecIdMatchAndUntaggedBothAccepted) {
  const std::string dir = fresh_dir();
  const std::string path = write_tagged_segment(dir, /*codec_id=*/3, 2);
  {
    // Exact match: reads through.
    SpillReader reader(path, /*expected_codec_id=*/3);
    EXPECT_EQ(reader.header().codec_id, 3u);
    SpillRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.payload, payload_for(0));
  }
  {
    // A reader that does not care (expected 0) skips the gate but still
    // surfaces the stamp for its own bookkeeping.
    SpillReader reader(path);
    EXPECT_EQ(reader.header().codec_id, 3u);
  }
  // An untagged (pre-tagging writer) segment passes any expectation.
  const std::string dir2 = fresh_dir() + "-untagged";
  const std::string path2 = write_tagged_segment(dir2, /*codec_id=*/0, 1);
  SpillReader reader(path2, /*expected_codec_id=*/16);
  EXPECT_EQ(reader.header().codec_id, 0u);
}

// ---------------------------------------------------------------------------
// Raw wedge body (write_spilled_wedge / read_spilled_wedge)
// ---------------------------------------------------------------------------

/// A hand-built wedge body: the given dims, then `floats` data values.
std::string wedge_body(const std::vector<std::int64_t>& dims,
                       std::size_t floats) {
  std::ostringstream os;
  nc::util::write_u64(os, dims.size());
  for (const auto d : dims) nc::util::write_i64(os, d);
  const std::vector<float> data(floats, 1.0f);
  nc::util::write_bytes(os, data.data(), data.size() * sizeof(float));
  return os.str();
}

Tensor read_body(const std::string& bytes) {
  return nc::codec::read_spilled_wedge(bytes);
}

TEST(SpilledWedge, RoundTripsBitExact) {
  const Tensor wedge = raw_wedge(3);
  const Tensor back = read_body(nc::codec::write_spilled_wedge(wedge));
  ASSERT_EQ(back.shape(), wedge.shape());
  EXPECT_EQ(std::memcmp(back.data(), wedge.data(),
                        static_cast<std::size_t>(wedge.numel()) * sizeof(float)),
            0);
}

TEST(SpilledWedge, ImplausibleShapeOrTruncatedDataThrows) {
  constexpr std::int64_t kMaxDim = std::int64_t{1} << 20;
  EXPECT_EQ(read_body(wedge_body({2, 3}, 6)).numel(), 6);  // the control
  EXPECT_THROW(read_body(wedge_body({1, 1, 1, 1, 1, 1, 1, 1, 1}, 1)),
               SerializeError);                                  // rank 9
  EXPECT_THROW(read_body(wedge_body({4, 0}, 0)), SerializeError);  // dim 0
  EXPECT_THROW(read_body(wedge_body({kMaxDim + 1}, 0)), SerializeError);
  // Both dims legal, product just over 2^28: rejected before allocating.
  EXPECT_THROW(read_body(wedge_body({kMaxDim, 257}, 0)), SerializeError);
  EXPECT_THROW(read_body(wedge_body({2, 3}, 5)), SerializeError);  // short
}

// ---------------------------------------------------------------------------
// Pipeline integration: lossless backpressure
// ---------------------------------------------------------------------------

class SpillPipelineIntake : public nc::testutil::IntakeNamedTest {};

NC_INSTANTIATE_SHARDED_NAMES(SpillPipelineIntake);

TEST_P(SpillPipelineIntake, BurstBeyondCapacityCompletesWithoutDrops) {
  // A burst of 4x the intake capacity, try_submitted back-to-back against
  // deliberately slow workers: without the spill tier most of it would
  // drop; with it the run must be lossless and, in ordered mode, emit the
  // identity sequence.
  StreamOptions opt;
  opt.queue_capacity = 16;
  opt.batch_size = 2;
  opt.n_workers = 3;
  opt.ordered = true;
  opt.spill_dir = fresh_dir();
  std::vector<std::uint64_t> seqs;
  std::vector<int> values;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return std::move(in);
      },
      nullptr,
      [&](std::uint64_t seq, int&& v) {
        seqs.push_back(seq);
        values.push_back(v);
      },
      int_spill_codec());
  const int n = 4 * 16;
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(pipeline.try_submit(i));  // accepted or spilled, never lost
  }
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(stats.wedges_failed, 0);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_GT(stats.wedges_spilled, 0);
  EXPECT_EQ(stats.wedges_replayed, stats.wedges_spilled);
  EXPECT_GT(stats.spill_bytes_hwm, 0);
  nc::testutil::expect_ordered_identity(seqs, static_cast<std::uint64_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(values[static_cast<std::size_t>(i)], i);  // payloads round-tripped
  }
  // Nothing left behind: the tier is transient unless spill_keep is set.
  EXPECT_TRUE(!fs::exists(opt.spill_dir) || segment_files(opt.spill_dir).empty());
}

TEST_P(SpillPipelineIntake, DeadlineLetsWorkersCatchUpBeforeSpilling) {
  // With a generous spill deadline and fast workers, a burst is absorbed by
  // waiting — nothing should ever reach the disk.
  StreamOptions opt;
  opt.queue_capacity = 4;
  opt.batch_size = 2;
  opt.n_workers = 2;
  opt.spill_dir = fresh_dir();
  opt.spill_deadline_s = 5.0;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt, [](std::vector<int>&& in) { return std::move(in); }, nullptr,
      [&](std::uint64_t, int&&) { received.fetch_add(1); }, int_spill_codec());
  const int n = 64;
  for (int i = 0; i < n; ++i) EXPECT_TRUE(pipeline.try_submit(i));
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(stats.wedges_spilled, 0);
  EXPECT_EQ(received.load(), n);
}

TEST_P(SpillPipelineIntake, DiskFullSurfacesAsCountedDropsNotAHang) {
  // A tiny spill quota simulates ENOSPC: the burst overflows the intake,
  // some wedges spill, the rest are *counted* drops — and the pipeline
  // still drains and finishes.
  StreamOptions opt;
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 2;
  opt.ordered = true;
  opt.spill_dir = fresh_dir();
  opt.spill_max_bytes = 16 + 3 * (20 + sizeof(int));  // header + ~3 records
  std::vector<std::uint64_t> seqs;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { seqs.push_back(seq); },
      int_spill_codec());
  const int n = 64;
  int accepted = 0;
  for (int i = 0; i < n; ++i) {
    if (pipeline.try_submit(i)) ++accepted;
  }
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_in, accepted);
  EXPECT_GT(stats.wedges_spilled, 0);
  EXPECT_GT(stats.wedges_dropped, 0);  // the quota bit, loudly
  EXPECT_EQ(stats.wedges_dropped, n - accepted);
  EXPECT_EQ(stats.wedges_replayed, stats.wedges_spilled);
  EXPECT_EQ(stats.wedges_compressed, accepted);
  // Ordered mode still emits every accepted seq in order: drops consumed no
  // sequence numbers, so the stream has no holes to hang on.
  nc::testutil::expect_ordered_identity(seqs,
                                        static_cast<std::uint64_t>(accepted));
}

TEST_P(SpillPipelineIntake, SubmitAfterFinishCountsDroppedNotSpilled) {
  // Regression: with the spill tier enabled, a submit after finish() must
  // land in wedges_dropped — not spill into a file nobody will replay.
  StreamOptions opt;
  opt.queue_capacity = 4;
  opt.n_workers = 2;
  opt.spill_dir = fresh_dir();
  IntPipeline pipeline(
      opt, [](std::vector<int>&& in) { return std::move(in); }, nullptr,
      [](std::uint64_t, int&&) {}, int_spill_codec());
  for (int i = 0; i < 8; ++i) pipeline.submit(i);
  const auto first = pipeline.finish();
  EXPECT_EQ(first.wedges_dropped, 0);
  pipeline.submit(99);
  EXPECT_FALSE(pipeline.try_submit(100));
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_dropped, 2);
  EXPECT_EQ(stats.wedges_in, 8);
  // And no stray spill segments appeared for the rejected submits.
  EXPECT_TRUE(!fs::exists(opt.spill_dir) || segment_files(opt.spill_dir).empty());
}

TEST_P(SpillPipelineIntake, UnreadableAndUndecodableRecordsReachOnLost) {
  // The one worker stalls on item 0 and item 1 fills the one-slot intake,
  // so items 2..7 spill.  Item 4's record gets a flipped payload byte and
  // decode throws for item 6: in both modes the two failed replays take
  // the loss path, counted once each and handed to on_lost.
  for (const bool ordered : {true, false}) {
    SCOPED_TRACE(ordered ? "ordered" : "unordered");
    StreamOptions opt;
    opt.queue_capacity = 1;
    opt.batch_size = 1;
    opt.n_workers = 1;
    opt.ordered = ordered;
    opt.spill_dir = fresh_dir();
    nc::testutil::StallLatch gate;
    std::atomic<int> entered{0};
    nc::testutil::SeqLog emitted;
    nc::testutil::SeqLog lost;
    auto codec = int_spill_codec();
    codec.decode = [decode = codec.decode](std::uint64_t seq,
                                           const std::string& bytes) {
      if (seq == 6) throw SerializeError("item 6 does not decode");
      return decode(seq, bytes);
    };
    IntPipeline pipeline(
        opt,
        [&](std::vector<int>&& in) {
          entered.fetch_add(1);
          gate.wait();
          return std::move(in);
        },
        nullptr, [&](std::uint64_t seq, int&&) { emitted.push(seq); },
        std::move(codec), [&](std::uint64_t seq) { lost.push(seq); });
    ASSERT_TRUE(pipeline.try_submit(0));
    ASSERT_TRUE(nc::testutil::spin_until([&] { return entered.load() == 1; }));
    for (int i = 1; i < 8; ++i) ASSERT_TRUE(pipeline.try_submit(i));
    const auto segments = segment_files(opt.spill_dir);
    ASSERT_EQ(segments.size(), 1u);
    {
      // After the 16-byte segment header, each record is 16 header bytes,
      // a 4-byte int and a CRC; item 4's is the third.
      const std::streamoff at = 16 + 2 * (16 + 4 + 4) + 16;
      std::fstream f(segments[0],
                     std::ios::binary | std::ios::in | std::ios::out);
      f.seekg(at);
      const char c = static_cast<char>(f.get());
      f.seekp(at);
      f.put(static_cast<char>(c ^ 0x40));
    }
    gate.release();
    const auto stats = pipeline.finish();
    EXPECT_EQ(stats.wedges_spilled, 6);
    EXPECT_EQ(stats.wedges_replayed, 4);
    EXPECT_EQ(stats.wedges_failed, 2);
    EXPECT_EQ(stats.wedges_compressed, 6);
    auto lost_seqs = lost.snapshot();
    std::sort(lost_seqs.begin(), lost_seqs.end());
    EXPECT_EQ(lost_seqs, (std::vector<std::uint64_t>{4, 6}));
    auto out = emitted.snapshot();
    if (!ordered) std::sort(out.begin(), out.end());
    EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 2, 3, 5, 7}));
  }
}

TEST_P(SpillPipelineIntake, KeptSegmentsReplayBitExactAfterClose) {
  // spill_keep retains the segments a finished pipeline spilled; a
  // SpillReader over them must reproduce the exact spilled payloads — the
  // recovery path for a run that died before (or instead of) replaying.
  StreamOptions opt;
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 2;
  opt.spill_dir = fresh_dir();
  opt.spill_keep = true;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return std::move(in);
      },
      nullptr, [](std::uint64_t, int&&) {}, int_spill_codec());
  const int n = 48;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(pipeline.try_submit(i));
  const auto stats = pipeline.finish();
  ASSERT_GT(stats.wedges_spilled, 0);
  EXPECT_EQ(stats.wedges_replayed, stats.wedges_spilled);

  const auto codec = int_spill_codec();
  std::int64_t replayed = 0;
  for (const auto& path : segment_files(opt.spill_dir)) {
    SpillReader reader(path);
    SpillRecord rec;
    while (reader.next(rec)) {
      // Seq numbers double as the submitted values here, so the payload
      // must decode to exactly its own seq.
      EXPECT_EQ(codec.decode(rec.seq, rec.payload),
                static_cast<int>(rec.seq));
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, stats.wedges_spilled);
}

// ---------------------------------------------------------------------------
// Codec-level acceptance: ordered spilled output is bit-identical
// ---------------------------------------------------------------------------

TEST_P(SpillPipelineIntake, CompressorBurstMatchesUnboundedRunBitExact) {
  // The acceptance criterion: a 4x-capacity burst through the real encoder
  // with the spill tier on yields the same ordered bitstream as a run whose
  // queue holds everything — spilling must be invisible downstream.
  auto model = nc::bcae::make_bcae_ht(81);
  BcaeWedgeCodec codec(model, Mode::kEval);
  const int n = 32;

  const auto run = [&](StreamOptions opt) {
    std::map<std::uint64_t, WedgeEnvelope> out;  // ordered sink: no lock
    StreamCompressor stream(codec, opt,
                            [&](std::uint64_t seq, WedgeEnvelope&& env) {
                              out.emplace(seq, std::move(env));
                            });
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(stream.try_submit(raw_wedge(static_cast<std::size_t>(i))));
    }
    return std::make_pair(stream.finish(), std::move(out));
  };

  StreamOptions burst;
  burst.queue_capacity = 8;  // burst is 4x this
  burst.batch_size = 2;
  burst.n_workers = 2;
  burst.ordered = true;
  burst.spill_dir = fresh_dir();
  const auto [bstats, bout] = run(burst);
  EXPECT_EQ(bstats.wedges_in, n);
  EXPECT_EQ(bstats.wedges_dropped, 0);
  EXPECT_GT(bstats.wedges_spilled, 0);  // the burst really overflowed
  EXPECT_EQ(bstats.wedges_replayed, bstats.wedges_spilled);
  EXPECT_EQ(bstats.wedges_compressed, n);

  StreamOptions unbounded;
  unbounded.queue_capacity = 64;  // the intake holds the whole burst
  unbounded.batch_size = 2;
  unbounded.n_workers = 2;
  unbounded.ordered = true;
  const auto [ustats, uout] = run(unbounded);
  EXPECT_EQ(ustats.wedges_spilled, 0);
  EXPECT_EQ(ustats.wedges_compressed, n);

  ASSERT_EQ(bout.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(uout.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& a = bout.at(static_cast<std::uint64_t>(i));
    const auto& b = uout.at(static_cast<std::uint64_t>(i));
    EXPECT_EQ(a.wedge_shape, b.wedge_shape);
    EXPECT_EQ(a.codec_id, b.codec_id);
    ASSERT_EQ(a.payload.size(), b.payload.size());
    EXPECT_EQ(std::memcmp(a.payload.data(), b.payload.data(), a.payload.size()),
              0)
        << "wedge " << i << " bitstream diverged";
  }
}

TEST(SpillCodecId, CompressorStampsItsCodecIntoKeptSegments) {
  // The stream layer fills StreamOptions::spill_codec_id from its codec, so
  // every kept segment is tagged — replay tooling pointed at the wrong
  // codec is rejected at open (the satellite bugfix), and the right codec
  // sails through.
  auto model = nc::bcae::make_bcae_ht(81);
  BcaeWedgeCodec codec(model, Mode::kEval);
  StreamOptions opt;
  opt.queue_capacity = 4;
  opt.batch_size = 2;
  opt.n_workers = 2;
  opt.spill_dir = fresh_dir();
  opt.spill_keep = true;
  StreamCompressor stream(codec, opt, [](WedgeEnvelope&&) {});
  const int n = 24;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(stream.try_submit(raw_wedge(static_cast<std::size_t>(i))));
  }
  const auto stats = stream.finish();
  ASSERT_GT(stats.wedges_spilled, 0);
  const auto files = segment_files(opt.spill_dir);
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    SpillReader reader(path, codec.codec_id());  // matching id: opens fine
    EXPECT_EQ(reader.header().codec_id,
              static_cast<std::uint32_t>(codec.codec_id()));
    EXPECT_THROW(SpillReader(path, codec.codec_id() + 1), SerializeError)
        << "a different codec must be rejected at open";
  }
}

}  // namespace
