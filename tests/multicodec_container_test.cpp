// Container-level tests for the version-3 multi-codec format: mixed-codec
// round trips, the full single-byte corruption matrix (every flipped byte is
// either detected by a CRC/validation layer or decodes to a covering
// expansion), typed UnknownCodecId for crafted records, v2 backward
// compatibility through codec::decode_image, and engine determinism for
// codec= jobs at any worker count.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bits/rng.h"
#include "codec/select.h"
#include "engine/engine.h"
#include "lzw/stream_io.h"
#include "scan/testset.h"

namespace tdc {
namespace {

using bits::Rng;
using bits::Trit;
using bits::TritVector;

TritVector random_cube(std::size_t n, double x_density, std::uint64_t seed) {
  Rng rng(seed);
  TritVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!rng.chance(x_density)) v.set(i, rng.bit() ? Trit::One : Trit::Zero);
  }
  return v;
}

std::string serialize_v3(const codec::EncodedChunks& chunks,
                         std::uint32_t chunk_trits) {
  std::ostringstream out;
  lzw::write_image_v3(out, lzw::LzwConfig{}, chunks.original_bits, chunk_trits,
                      chunks.records);
  return std::move(out).str();
}

Result<lzw::CompressedImage> parse(const std::string& bytes) {
  std::istringstream in(bytes);
  return lzw::try_read_image(in);
}

/// Encodes `input` with per-chunk racing at a chunk size small enough to
/// exercise several records (and, with the right input, several codecs).
codec::EncodedChunks encode_mixed(const TritVector& input,
                                  std::uint32_t chunk_trits) {
  codec::SelectOptions options =
      codec::parse_codec_mode("race").value_or_throw();
  options.chunk_trits = chunk_trits;
  return codec::encode_chunks(input, options).value_or_throw();
}

TEST(MultiCodecContainerTest, MixedCodecImageRoundTrips) {
  // Alternate incompressible noise with highly structured runs so different
  // chunks genuinely pick different winners.
  TritVector input;
  input.append(random_cube(1000, 0.0, 3));
  input.append(TritVector(1000, Trit::Zero));
  input.append(random_cube(1000, 0.95, 4));
  const codec::EncodedChunks chunks = encode_mixed(input, 1000);
  ASSERT_EQ(chunks.records.size(), 3u);

  const std::string bytes = serialize_v3(chunks, 1000);
  Result<lzw::CompressedImage> image = parse(bytes);
  ASSERT_TRUE(image.ok()) << image.error().describe();
  EXPECT_EQ(image.value().container.version, 3u);
  EXPECT_TRUE(image.value().multi_codec());
  EXPECT_EQ(image.value().chunks.size(), 3u);
  EXPECT_EQ(image.value().original_bits, input.size());

  const Result<TritVector> decoded = codec::decode_image(image.value());
  ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
  EXPECT_TRUE(decoded.value().fully_specified());
  EXPECT_TRUE(input.covered_by(decoded.value()));
}

TEST(MultiCodecContainerTest, LegacyDecodePathRefusesMultiCodecImages) {
  const auto input = random_cube(500, 0.5, 5);
  const codec::EncodedChunks chunks = encode_mixed(input, 500);
  Result<lzw::CompressedImage> image = parse(serialize_v3(chunks, 500));
  ASSERT_TRUE(image.ok());
  const auto decoded = image.value().try_decode();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, ErrorKind::ConfigMismatch);
}

TEST(MultiCodecContainerTest, EveryByteFlipIsDetectedOrStillCovers) {
  const auto input = random_cube(800, 0.6, 7);
  const codec::EncodedChunks chunks = encode_mixed(input, 200);
  const std::string good = serialize_v3(chunks, 200);
  ASSERT_TRUE(parse(good).ok());

  std::size_t rejected = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    Result<lzw::CompressedImage> image = parse(bad);
    if (!image.ok()) {
      ++rejected;
      continue;  // header/CRC layer caught it
    }
    const Result<TritVector> decoded = codec::decode_image(image.value());
    if (!decoded.ok()) {
      ++rejected;
      continue;  // record walk / codec layer caught it
    }
    // A surviving flip must still expand to a covering stream (CRC32 has no
    // blind spots for single-byte damage, so this should be unreachable).
    EXPECT_EQ(decoded.value().size(), input.size()) << "byte " << i;
    EXPECT_TRUE(input.covered_by(decoded.value())) << "byte " << i;
  }
  // Single-byte damage anywhere in the image must be detected.
  EXPECT_EQ(rejected, good.size());
}

TEST(MultiCodecContainerTest, CodecIdByteFlipFailsCleanly) {
  // Flip only the codec-id byte of a record to an unregistered id and fix up
  // nothing else: the per-record CRC must reject it before dispatch.
  const auto input = random_cube(400, 0.5, 11);
  const codec::EncodedChunks chunks = encode_mixed(input, 400);
  std::string bytes = serialize_v3(chunks, 400);

  // Records start after the 64-byte fixed header, the chunk CRC table
  // (1 record => one 4-byte entry) and the 4-byte header_crc32.
  const std::size_t record_start = 64 + 4 + 4;
  ASSERT_LT(record_start, bytes.size());
  bytes[record_start] = static_cast<char>(99);
  Result<lzw::CompressedImage> image = parse(bytes);
  if (image.ok()) {
    const Result<TritVector> decoded = codec::decode_image(image.value());
    ASSERT_FALSE(decoded.ok());
  } else {
    EXPECT_TRUE(image.error().kind == ErrorKind::ChunkCrcMismatch ||
                image.error().kind == ErrorKind::PayloadCrcMismatch)
        << image.error().describe();
  }
}

TEST(MultiCodecContainerTest, CraftedUnknownCodecIdIsTyped) {
  // Build a record stream whose id names no backend but whose CRCs are
  // valid — the registry dispatch layer must answer with UnknownCodecId.
  const auto input = random_cube(300, 0.5, 13);
  codec::EncodedChunks chunks = encode_mixed(input, 300);
  ASSERT_EQ(chunks.records.size(), 1u);
  chunks.records[0].codec_id = 200;
  Result<lzw::CompressedImage> image = parse(serialize_v3(chunks, 300));
  ASSERT_TRUE(image.ok()) << image.error().describe();
  const Result<TritVector> decoded = codec::decode_image(image.value());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, ErrorKind::UnknownCodecId);
  EXPECT_EQ(decoded.error().chunk_index, 0);
  EXPECT_FALSE(is_container_error(decoded.error().kind));
}

TEST(MultiCodecContainerTest, V2ImagesDecodeUnchangedThroughDecodeImage) {
  const auto input = random_cube(900, 0.7, 17);
  const auto encoded = lzw::Encoder(lzw::LzwConfig{}).encode(input);
  std::ostringstream out;
  lzw::write_image(out, encoded, lzw::ContainerOptions{});
  Result<lzw::CompressedImage> image = parse(std::move(out).str());
  ASSERT_TRUE(image.ok());
  EXPECT_FALSE(image.value().multi_codec());
  const Result<TritVector> via_registry = codec::decode_image(image.value());
  ASSERT_TRUE(via_registry.ok());
  EXPECT_EQ(via_registry.value(), image.value().decode().bits);
}

TEST(MultiCodecContainerTest, EmptyStreamRoundTrips) {
  codec::SelectOptions options = codec::parse_codec_mode("auto").value_or_throw();
  const codec::EncodedChunks chunks =
      codec::encode_chunks(TritVector{}, options).value_or_throw();
  ASSERT_EQ(chunks.records.size(), 1u);
  Result<lzw::CompressedImage> image =
      parse(serialize_v3(chunks, codec::kDefaultChunkTrits));
  ASSERT_TRUE(image.ok()) << image.error().describe();
  const Result<TritVector> decoded = codec::decode_image(image.value());
  ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
  EXPECT_EQ(decoded.value().size(), 0u);
}

TEST(MultiCodecEngineTest, CodecJobsAreDeterministicForAnyWorkerCount) {
  // Same manifest, 1 vs 4 workers: the committed container bytes and every
  // reported number must match byte for byte.
  const auto make_manifest = [] {
    engine::Manifest manifest;
    auto tests = std::make_shared<scan::TestSet>();
    tests->circuit = "inline";
    tests->width = 64;
    for (int p = 0; p < 40; ++p) tests->cubes.push_back(random_cube(64, 0.8, 100 + p));
    const auto stream = std::make_shared<const TritVector>(tests->serialize());
    for (const char* mode : {"auto", "race", "bwt", "lzw"}) {
      engine::JobSpec spec;
      spec.name = std::string("job_") + mode;
      spec.inline_stream = stream;
      spec.codec = mode;
      spec.chunk_trits = 640;
      manifest.jobs.push_back(std::move(spec));
    }
    return manifest;
  };

  engine::EngineOptions one;
  one.workers = 1;
  engine::EngineOptions four;
  four.workers = 4;
  const engine::BatchResult a = engine::Engine(one).run(make_manifest());
  const engine::BatchResult b = engine::Engine(four).run(make_manifest());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    ASSERT_TRUE(a.jobs[i].ok()) << a.jobs[i].name;
    ASSERT_TRUE(b.jobs[i].ok()) << b.jobs[i].name;
    EXPECT_EQ(a.jobs[i].container, b.jobs[i].container) << a.jobs[i].name;
    EXPECT_EQ(a.jobs[i].compressed_bits, b.jobs[i].compressed_bits);
    EXPECT_EQ(a.jobs[i].container_version, 3u);
  }
  EXPECT_EQ(a.report(), b.report());
}

TEST(MultiCodecEngineTest, AutoJobNeverLosesToPureLzwJob) {
  engine::Manifest manifest;
  auto tests = std::make_shared<scan::TestSet>();
  tests->circuit = "inline";
  tests->width = 128;
  for (int p = 0; p < 30; ++p) tests->cubes.push_back(random_cube(128, 0.6, 500 + p));
  const auto stream = std::make_shared<const TritVector>(tests->serialize());
  for (const char* mode : {"", "auto"}) {
    engine::JobSpec spec;
    spec.name = mode[0] == '\0' ? "pure" : "auto";
    spec.inline_stream = stream;
    spec.codec = mode;
    manifest.jobs.push_back(std::move(spec));
  }
  const engine::EngineOptions options;
  const engine::BatchResult result = engine::Engine(options).run(manifest);
  ASSERT_TRUE(result.jobs[0].ok());
  ASSERT_TRUE(result.jobs[1].ok());
  EXPECT_LE(result.jobs[1].compressed_bits, result.jobs[0].compressed_bits);
}

}  // namespace
}  // namespace tdc
