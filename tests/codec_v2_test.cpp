// Contract tests for the chunk-aware codec v2 API: every registered backend
// round-trips adversarial corpora through its self-contained wire payload,
// the canonical decode registry expands payloads produced by any encode-side
// instance, estimates are deterministic, and the token/id mappings are
// stable.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bits/rng.h"
#include "codec/codec.h"
#include "codec/select.h"
#include "lzw/stream_io.h"

namespace tdc::codec {
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

/// The adversarial corpus every backend must survive: the degenerate sizes,
/// both X extremes, and incompressible noise.
std::vector<std::pair<const char*, TritVector>> corpus() {
  std::vector<std::pair<const char*, TritVector>> inputs;
  inputs.emplace_back("empty", TritVector{});
  inputs.emplace_back("one_zero", TritVector::from_string("0"));
  inputs.emplace_back("one_one", TritVector::from_string("1"));
  inputs.emplace_back("all_x", TritVector(777));
  inputs.emplace_back("all_specified", random_cube(2048, 0.0, 7));
  inputs.emplace_back("incompressible", random_cube(4096, 0.0, 991));
  inputs.emplace_back("mixed_density", random_cube(3000, 0.7, 13));
  TritVector structured;
  for (int i = 0; i < 100; ++i) {
    structured.append(TritVector::from_string("11001010"));
  }
  inputs.emplace_back("structured", std::move(structured));
  return inputs;
}

TEST(CodecV2Test, EveryRegisteredCodecRoundTripsAdversarialCorpus) {
  const auto registry = default_registry(32);
  ASSERT_FALSE(registry.empty());
  for (const auto& codec : registry) {
    for (const auto& [label, input] : corpus()) {
      const Result<CodecStats> stats = codec->round_trip(input);
      ASSERT_TRUE(stats.ok()) << codec->name() << " on " << label << ": "
                              << stats.error().describe();
      EXPECT_EQ(stats.value().original_bits, input.size())
          << codec->name() << " on " << label;
    }
  }
}

TEST(CodecV2Test, PayloadsDecodeThroughCanonicalRegistryInstance) {
  // A payload must be self-contained: the long-lived codec_for_id instance
  // (wire-default parameters) expands chunks from any encode-side instance.
  const auto registry = default_registry(32);
  const auto input = random_cube(2000, 0.6, 21);
  for (const auto& codec : registry) {
    const Result<CompressedChunk> chunk = codec->compress_chunk(input);
    ASSERT_TRUE(chunk.ok()) << codec->name();
    const Codec* canonical = codec_for_id(static_cast<std::uint8_t>(codec->id()));
    ASSERT_NE(canonical, nullptr) << codec->name();
    const Result<TritVector> decoded =
        canonical->decompress_chunk(chunk.value().payload, input.size());
    ASSERT_TRUE(decoded.ok()) << codec->name() << ": "
                              << decoded.error().describe();
    ASSERT_EQ(decoded.value().size(), input.size()) << codec->name();
    EXPECT_TRUE(decoded.value().fully_specified()) << codec->name();
    EXPECT_TRUE(input.covered_by(decoded.value())) << codec->name();
  }
}

TEST(CodecV2Test, EstimatesAreDeterministicAndFiniteForEveryBackend) {
  const auto registry = default_registry(32);
  for (const auto& input :
       {random_cube(5000, 0.9, 3), random_cube(5000, 0.0, 4), TritVector(64)}) {
    const ChunkFeatures features = analyze_chunk(input);
    for (const auto& codec : registry) {
      const std::uint64_t first = codec->estimate_bits(features);
      EXPECT_EQ(first, codec->estimate_bits(features)) << codec->name();
    }
  }
}

TEST(CodecV2Test, AnalyzeChunkCountsFeatures) {
  const auto v = TritVector::from_string("1100XX01");
  const ChunkFeatures f = analyze_chunk(v);
  EXPECT_EQ(f.trits, 8u);
  EXPECT_EQ(f.care, 6u);
  EXPECT_EQ(f.ones, 3u);
  // Repeat-fill keeps the X positions at the previous value: 11000001.
  EXPECT_EQ(f.runs, 3u);
  EXPECT_NEAR(f.x_density(), 0.25, 1e-9);
  EXPECT_NEAR(f.care_entropy(), 1.0, 1e-9);
}

TEST(CodecV2Test, TokenAndIdMappingsAreStable) {
  // Wire ids are append-only; these exact values are archived in deployed
  // containers and must never change.
  EXPECT_EQ(static_cast<int>(CodecId::Lzw), 1);
  EXPECT_EQ(static_cast<int>(CodecId::Lz77), 2);
  EXPECT_EQ(static_cast<int>(CodecId::Rle), 3);
  EXPECT_EQ(static_cast<int>(CodecId::Huffman), 4);
  EXPECT_EQ(static_cast<int>(CodecId::LfsrReseed), 5);
  EXPECT_EQ(static_cast<int>(CodecId::Bwt), 6);
  for (const auto id : {CodecId::Lzw, CodecId::Lz77, CodecId::Rle,
                        CodecId::Huffman, CodecId::LfsrReseed, CodecId::Bwt}) {
    const Result<CodecId> parsed = parse_codec_id(to_string(id));
    ASSERT_TRUE(parsed.ok()) << to_string(id);
    EXPECT_EQ(parsed.value(), id);
  }
  EXPECT_FALSE(parse_codec_id("gzip").ok());
  EXPECT_EQ(codec_for_id(0), nullptr);
  EXPECT_EQ(codec_for_id(250), nullptr);
}

TEST(CodecV2Test, DecompressRejectsDamagedPayloads) {
  // Every single-byte corruption of every backend's payload must surface as
  // a typed Error (or decode to different bits) — never UB or a crash.
  const auto registry = default_registry(32);
  const auto input = random_cube(600, 0.5, 77);
  for (const auto& codec : registry) {
    const Result<CompressedChunk> chunk = codec->compress_chunk(input);
    ASSERT_TRUE(chunk.ok()) << codec->name();
    const Codec* canonical = codec_for_id(static_cast<std::uint8_t>(codec->id()));
    for (std::size_t i = 0; i < chunk.value().payload.size(); ++i) {
      auto damaged = chunk.value().payload;
      damaged[i] ^= 0x41;
      // Must terminate with a typed result; a successful decode of damaged
      // bytes is tolerated (the container CRC layer catches those), UB not.
      const Result<TritVector> decoded =
          canonical->decompress_chunk(damaged, input.size());
      if (decoded.ok()) {
        EXPECT_EQ(decoded.value().size(), input.size())
            << codec->name() << " byte " << i;
      }
    }
    // Truncations likewise.
    for (const std::size_t keep : {std::size_t{0}, std::size_t{1},
                                   chunk.value().payload.size() / 2}) {
      auto truncated = chunk.value().payload;
      truncated.resize(std::min(keep, truncated.size()));
      const Result<TritVector> decoded =
          canonical->decompress_chunk(truncated, input.size());
      if (input.size() != 0) {
        EXPECT_FALSE(decoded.ok()) << codec->name() << " keep " << keep;
      }
    }
  }
}

TEST(CodecV2Test, LzwPayloadDictionaryAboveTheCapIsInvalidInput) {
  // The payload's N is untrusted: one past LzwConfig::kMaxDictSize is
  // refused before the decoder reserves anything.
  const Codec* lzw = codec_for_name("lzw");
  ASSERT_NE(lzw, nullptr);
  const auto input = random_cube(600, 0.5, 78);
  const Result<CompressedChunk> chunk = lzw->compress_chunk(input);
  ASSERT_TRUE(chunk.ok());
  std::vector<std::uint8_t> payload = chunk.value().payload;
  const std::uint32_t n = lzw::LzwConfig::kMaxDictSize + 1;
  for (std::size_t i = 0; i < 4; ++i) {
    payload[i] = static_cast<std::uint8_t>(n >> (8 * i));  // leading u32 N
  }
  const Result<TritVector> decoded = lzw->decompress_chunk(payload, input.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, ErrorKind::InvalidInput);
  EXPECT_NE(decoded.error().message.find("2^20"), std::string::npos);
}

TEST(CodecV2Test, FdrRunPrefixPastGroup63IsInvalidInput) {
  // A CRC-valid v3 image whose RLE record uses the FDR run code (run_code 1)
  // and opens with 71 one-bits: the group index k would reach 72, and 2^k
  // does not fit the 64-bit run length. The decoder must answer with a
  // typed InvalidInput, not shift past the word.
  std::vector<std::uint8_t> payload;
  const auto put_le = [&payload](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) payload.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put_le(1, 4);   // run_code: FDR
  put_le(0, 4);   // golomb_m (unused by FDR)
  put_le(80, 8);  // stream bit count
  for (int i = 0; i < 8; ++i) payload.push_back(0xFF);  // 64 ones
  payload.push_back(0xFE);                               // 7 more, then a 0
  payload.push_back(0x00);
  lzw::ChunkRecord record;
  record.codec_id = static_cast<std::uint8_t>(CodecId::Rle);
  record.original_trits = 100;
  record.payload = payload;
  std::ostringstream out(std::ios::binary);
  lzw::write_image_v3(out, lzw::LzwConfig{}, 100, 4096, {record});
  std::istringstream in(std::move(out).str(), std::ios::binary);
  const Result<lzw::CompressedImage> image = lzw::try_read_image(in);
  ASSERT_TRUE(image.ok()) << image.error().describe();
  const Result<TritVector> decoded = decode_image(image.value());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, ErrorKind::InvalidInput) << decoded.error().describe();
  EXPECT_NE(decoded.error().message.find("FDR"), std::string::npos);
}

TEST(CodecV2Test, StreamBitCountPastThePayloadIsInvalidInput) {
  // A stream image declares its bit count; one within 7 of 2^64 must not
  // round its byte count up past the u64 range to zero, which would let
  // the decoder read a stream of ~2^64 bits out of no bytes.
  std::vector<std::uint8_t> payload;
  const auto put_le = [&payload](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) payload.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  for (const std::uint64_t bit_count : {~std::uint64_t{0}, ~std::uint64_t{0} - 6,
                                        std::uint64_t{1}}) {
    payload.clear();
    put_le(8, 4);  // LZ77 window_bits
    put_le(4, 4);  // LZ77 length_bits
    put_le(bit_count, 8);  // and no stream bytes at all
    const Result<TritVector> decoded =
        codec_for_name("lz77")->decompress_chunk(payload, 100);
    ASSERT_FALSE(decoded.ok()) << bit_count;
    EXPECT_EQ(decoded.error().kind, ErrorKind::InvalidInput) << bit_count;
  }
}

TEST(SelectTest, ParseCodecModeAcceptsTokensAndModes) {
  EXPECT_EQ(parse_codec_mode("auto").value().mode, SelectMode::Auto);
  EXPECT_EQ(parse_codec_mode("race").value().mode, SelectMode::Race);
  const SelectOptions forced = parse_codec_mode("bwt").value();
  EXPECT_EQ(forced.mode, SelectMode::Forced);
  EXPECT_EQ(forced.forced, CodecId::Bwt);
  const Result<SelectOptions> bad = parse_codec_mode("zstd");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, ErrorKind::InvalidInput);
}

TEST(SelectTest, AutoNeverLosesToPureLzwOnAnyCorpusEntry) {
  // The acceptance invariant: auto races its pick against LZW per chunk and
  // keeps LZW on ties, so its paper-accounting bits never exceed pure LZW's.
  for (const auto& [label, input] : corpus()) {
    for (const std::uint32_t chunk_trits : {std::uint32_t{257}, kDefaultChunkTrits}) {
      SelectOptions lzw_only;
      lzw_only.chunk_trits = chunk_trits;
      SelectOptions auto_mode = lzw_only;
      auto_mode.mode = SelectMode::Auto;
      const Result<EncodedChunks> pure = encode_chunks(input, lzw_only);
      const Result<EncodedChunks> mixed = encode_chunks(input, auto_mode);
      ASSERT_TRUE(pure.ok()) << label;
      ASSERT_TRUE(mixed.ok()) << label;
      EXPECT_LE(mixed.value().stats_bits, pure.value().stats_bits)
          << label << " chunk_trits=" << chunk_trits;
    }
  }
}

TEST(SelectTest, EncodeDecodeRoundTripsAcrossModesAndChunkSizes) {
  const auto input = random_cube(10000, 0.8, 5);
  for (const char* mode : {"lzw", "lz77", "rle", "huffman", "bwt", "auto", "race"}) {
    for (const std::uint32_t chunk_trits : {std::uint32_t{333}, std::uint32_t{10000}}) {
      SelectOptions options = parse_codec_mode(mode).value();
      options.chunk_trits = chunk_trits;
      const Result<EncodedChunks> encoded = encode_chunks(input, options);
      ASSERT_TRUE(encoded.ok()) << mode << ": " << encoded.error().describe();
      const Result<TritVector> decoded =
          decode_records(encoded.value().records, encoded.value().original_bits);
      ASSERT_TRUE(decoded.ok()) << mode << ": " << decoded.error().describe();
      ASSERT_EQ(decoded.value().size(), input.size()) << mode;
      EXPECT_TRUE(decoded.value().fully_specified()) << mode;
      EXPECT_TRUE(input.covered_by(decoded.value())) << mode;
    }
  }
}

TEST(SelectTest, ForcedLfsrIsRejectedOnFlatStreams) {
  const SelectOptions options = parse_codec_mode("lfsr").value();
  const Result<EncodedChunks> encoded = encode_chunks(TritVector(128), options);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.error().kind, ErrorKind::InvalidInput);
}

TEST(SelectTest, DecodeRecordsReportsUnknownCodecIdWithChunkIndex) {
  SelectOptions options;
  const auto input = random_cube(1000, 0.5, 9);
  options.chunk_trits = 300;
  const Result<EncodedChunks> encoded = encode_chunks(input, options);
  ASSERT_TRUE(encoded.ok());
  auto records = encoded.value().records;
  ASSERT_GE(records.size(), 3u);
  records[2].codec_id = 99;
  const Result<TritVector> decoded = decode_records(records, input.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, ErrorKind::UnknownCodecId);
  EXPECT_EQ(decoded.error().chunk_index, 2);
}

TEST(SelectTest, SelectionRecordsMetrics) {
  obs::MetricsRegistry metrics;
  SelectOptions options = parse_codec_mode("auto").value();
  options.chunk_trits = 500;
  const auto input = random_cube(2000, 0.7, 17);
  ASSERT_TRUE(encode_chunks(input, options, &metrics).ok());
  std::uint64_t selected = 0;
  for (const char* token : {"lzw", "lz77", "rle", "huffman", "bwt"}) {
    selected += metrics.counter(std::string("codec.selected.") + token).value();
  }
  EXPECT_EQ(selected, 4u);  // 2000 trits / 500 per chunk
  EXPECT_EQ(metrics.histogram("codec.select.micros").snapshot().count, 4u);
}

}  // namespace
}  // namespace tdc::codec
