#include "codec/stream.hpp"

#include <sstream>

#include "codec/spill.hpp"
#include "util/serialize.hpp"

namespace nc::codec {

namespace {

// --- spill codecs -----------------------------------------------------------
// The write side spills raw wedges (spill.hpp), the read side serialized
// envelopes.  Corrupt payloads throw SerializeError (the drainer counts them
// as failed).

std::string encode_wedge_spill(const core::Tensor& wedge) {
  std::ostringstream os;
  write_spilled_wedge(os, wedge);
  return os.str();
}

core::Tensor decode_wedge_spill(const std::string& bytes) {
  std::istringstream is(bytes);
  return read_spilled_wedge(is);
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
