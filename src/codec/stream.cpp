#include "codec/stream.hpp"

#include <sstream>

#include "util/serialize.hpp"

namespace nc::codec {

namespace {

// --- spill codecs -----------------------------------------------------------
// Raw (uncompressed) serializers for the overflow tier: spilling exists
// precisely because the encoder cannot keep up, so the bytes written under
// pressure must cost no model forwards.  Caps mirror WedgeEnvelope
// deserialization: corrupt spill payloads throw SerializeError (the drainer
// counts them as failed) instead of driving giant allocations.

constexpr std::int64_t kMaxSpillDim = std::int64_t{1} << 20;
constexpr std::int64_t kMaxSpillElems = std::int64_t{1} << 28;

std::string encode_wedge_spill(const core::Tensor& wedge) {
  std::ostringstream os;
  const auto& shape = wedge.shape();
  util::write_u64(os, shape.size());
  for (const auto d : shape) util::write_i64(os, d);
  util::write_bytes(os, wedge.data(),
                    static_cast<std::size_t>(wedge.numel()) * sizeof(float));
  return os.str();
}

core::Tensor decode_wedge_spill(const std::string& bytes) {
  std::istringstream is(bytes);
  const std::uint64_t rank = util::read_u64(is);
  if (rank > 8) {
    throw util::SerializeError("spilled wedge rank implausible: " +
                               std::to_string(rank));
  }
  core::Shape shape(rank);
  std::int64_t numel = 1;
  for (auto& d : shape) {
    d = util::read_i64(is);
    if (d <= 0 || d > kMaxSpillDim) {
      throw util::SerializeError("spilled wedge dim implausible: " +
                                 std::to_string(d));
    }
    if (numel > kMaxSpillElems / d) {
      throw util::SerializeError("spilled wedge element count implausible");
    }
    numel *= d;
  }
  core::Tensor wedge(std::move(shape));
  util::read_bytes(is, wedge.data(),
                   static_cast<std::size_t>(numel) * sizeof(float));
  return wedge;
}

std::string encode_envelope_spill(const WedgeEnvelope& env) {
  std::ostringstream os;
  env.serialize(os);
  return os.str();
}

WedgeEnvelope decode_envelope_spill(const std::string& bytes) {
  std::istringstream is(bytes);
  return WedgeEnvelope::deserialize(is);
}

StreamPipeline<core::Tensor, WedgeEnvelope>::BatchFn compress_fn(
    const WedgeCodec& codec) {
  return [&codec](std::vector<core::Tensor>&& batch) {
    return codec.compress_batch(batch);
  };
}

StreamPipeline<WedgeEnvelope, core::Tensor>::BatchFn decompress_fn(
    const WedgeCodec& codec) {
  return [&codec](std::vector<WedgeEnvelope>&& batch) {
    return codec.decompress_batch(batch);
  };
}

// Decoded-wedge volume with the paper's fp16 accounting (§3.1), mirroring
// payload_bytes() on the compressed side so the two directions report
// comparable byte totals.
std::int64_t decoded_bytes(const core::Tensor& wedge) {
  return wedge.numel() * 2;
}

// Stamp the codec's wire id into the pipeline options so every spill
// segment this stream writes is tagged with the codec it was running.
StreamOptions stamped(StreamOptions options, const WedgeCodec& codec) {
  options.spill_codec_id = codec.codec_id();
  return options;
}

}  // namespace

StreamCompressor::StreamCompressor(const WedgeCodec& codec,
                                   const StreamOptions& options, SeqSink sink)
    : pipeline_(stamped(options, codec), compress_fn(codec),
                [](const WedgeEnvelope& env) { return env.payload_bytes(); },
                std::move(sink), {encode_wedge_spill, decode_wedge_spill}) {}

StreamCompressor::StreamCompressor(const WedgeCodec& codec,
                                   const StreamOptions& options, Sink sink)
    : StreamCompressor(codec, options,
                       SeqSink([s = std::move(sink)](std::uint64_t,
                                                     WedgeEnvelope&& env) {
                         s(std::move(env));
                       })) {}

StreamCompressor::StreamCompressor(const WedgeCodec& codec,
                                   std::size_t queue_capacity,
                                   std::size_t batch_size, Sink sink)
    : StreamCompressor(
          codec,
          [&] {
            // Legacy single-worker shape: one worker drains a one-shard
            // intake, a plain bounded FIFO.
            StreamOptions opt;
            opt.queue_capacity = queue_capacity;
            opt.batch_size = batch_size;
            opt.n_workers = 1;
            return opt;
          }(),
          std::move(sink)) {}

StreamDecompressor::StreamDecompressor(const WedgeCodec& codec,
                                       const StreamOptions& options,
                                       SeqSink sink)
    : pipeline_(stamped(options, codec), decompress_fn(codec), decoded_bytes,
                std::move(sink),
                {encode_envelope_spill,
                 // Replay gate: a spilled envelope that names a different
                 // codec than this stream decodes with is rejected here
                 // (counted as failed with its seq) instead of handing a
                 // foreign payload to the decoder.
                 [id = codec.codec_id()](const std::string& bytes) {
                   WedgeEnvelope env = decode_envelope_spill(bytes);
                   if (env.codec_id != id) {
                     throw util::SerializeError(
                         "spilled envelope codec id " +
                         std::to_string(env.codec_id) +
                         " does not match stream codec id " +
                         std::to_string(id));
                   }
                   return env;
                 }}) {}

StreamDecompressor::StreamDecompressor(const WedgeCodec& codec,
                                       const StreamOptions& options, Sink sink)
    : StreamDecompressor(codec, options,
                         SeqSink([s = std::move(sink)](std::uint64_t,
                                                       core::Tensor&& wedge) {
                           s(std::move(wedge));
                         })) {}

}  // namespace nc::codec
