// The hardened container contract, exercised end to end:
//
//  * round trips for every tiebreak x code width x container version,
//  * byte-stable golden files (tests/data/) for every on-disk format —
//    TDCLZW1 written by older code must decode bit-identically forever, and
//    one version-3 image pins every codec's payload layout,
//  * a full corruption matrix: every single-bit flip of a TDCLZW2 image is
//    detected as a typed error, every truncation point of either version is
//    detected, fuzzed headers never crash or allocate absurdly,
//  * decode errors carry their position (code index, payload bit offset).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bits/rng.h"
#include "bits/wire.h"
#include "codec/codec.h"
#include "codec/select.h"
#include "code_lists.h"
#include "container_golden.h"
#include "core/crc32.h"
#include "core/error.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"
#include "lzw/stream_io.h"

namespace tdc {
namespace {

using lzw::CompressedImage;
using lzw::ContainerOptions;
using lzw::EncodeResult;

std::string serialize(const EncodeResult& encoded, const ContainerOptions& options) {
  std::ostringstream out(std::ios::binary);
  lzw::write_image(out, encoded, options);
  return out.str();
}

Result<CompressedImage> parse(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return lzw::try_read_image(in);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " — run golden_gen tests/data";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string data_path(const std::string& name) {
  return std::string(TDC_TEST_DATA_DIR) + "/" + name;
}

// ------------------------------------------------------------------- CRC32

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition the sliced
/// table implementation must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicedMatchesBitwiseAtEveryLengthAndAlignment) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);

  bits::Rng rng(0xc4c32u);
  std::vector<std::uint8_t> buf(64 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      const std::uint32_t expect = crc32_bitwise(p, len, 0);
      ASSERT_EQ(crc32(p, len), expect) << "offset " << offset << " len " << len;
      // Chaining through any split point gives the one-shot value.
      for (std::size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(crc32(p + split, len - split, crc32(p, split)), expect)
            << "offset " << offset << " len " << len << " split " << split;
      }
    }
  }
}

// ------------------------------------------------------------- round trips

TEST(ContainerRoundTrip, EveryTiebreakWidthAndVersion) {
  const bits::TritVector input = golden::input();
  for (const golden::Case& c : golden::cases()) {
    SCOPED_TRACE(c.name);
    const EncodeResult encoded = golden::encode(c);
    for (const ContainerOptions options :
         {ContainerOptions{.version = 1},
          ContainerOptions{.version = 2, .chunk_bytes = 0},
          ContainerOptions{.version = 2, .chunk_bytes = 64},
          ContainerOptions{.version = 2, .chunk_bytes = 4096}}) {
      std::string trace = "v";
      trace += std::to_string(options.version);
      trace += " chunk ";
      trace += std::to_string(options.chunk_bytes);
      SCOPED_TRACE(trace);
      Result<CompressedImage> image = parse(serialize(encoded, options));
      ASSERT_TRUE(image.ok()) << image.error().describe();
      const CompressedImage& img = image.value();
      EXPECT_EQ(img.container.version, options.version);
      EXPECT_EQ(img.config.dict_size, encoded.config.dict_size);
      EXPECT_EQ(img.config.variable_width, encoded.config.variable_width);
      EXPECT_EQ(img.code_count, encoded.code_count);
      EXPECT_EQ(img.original_bits, encoded.original_bits);
      EXPECT_EQ(img.stream.bytes(), encoded.stream.bytes());

      Result<lzw::DecodeResult> decoded = img.try_decode();
      ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
      EXPECT_EQ(decoded.value().bits.size(), input.size());
      EXPECT_TRUE(decoded.value().bits.fully_specified());
      EXPECT_TRUE(input.covered_by(decoded.value().bits));
    }
  }
}

TEST(ContainerRoundTrip, ChunkGeometryIsReported) {
  const EncodeResult encoded = golden::encode(golden::cases().front());
  const std::uint64_t payload_bytes = encoded.stream.bytes().size();
  Result<CompressedImage> image =
      parse(serialize(encoded, {.version = 2, .chunk_bytes = 64}));
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image.value().container.chunk_bytes, 64u);
  EXPECT_EQ(image.value().container.chunk_count, (payload_bytes + 63) / 64);
  EXPECT_TRUE(image.value().container.crc_protected());
  EXPECT_EQ(image.value().container.payload_bytes, payload_bytes);
}

// ------------------------------------------------------------ golden files

TEST(ContainerGolden, BytesAreStable) {
  // The writer must keep producing byte-identical containers for both
  // versions; anything else silently breaks every deployed decoder.
  for (const golden::Case& c : golden::cases()) {
    SCOPED_TRACE(c.name);
    const EncodeResult encoded = golden::encode(c);
    EXPECT_EQ(serialize(encoded, {.version = 1}),
              read_file(data_path(golden::file_name(c, 1))));
    EXPECT_EQ(serialize(encoded, golden::v2_options()),
              read_file(data_path(golden::file_name(c, 2))));
  }
}

TEST(ContainerGolden, BothVersionsDecodeBitIdentically) {
  const bits::TritVector input = golden::input();
  for (const golden::Case& c : golden::cases()) {
    SCOPED_TRACE(c.name);
    Result<CompressedImage> v1 = parse(read_file(data_path(golden::file_name(c, 1))));
    Result<CompressedImage> v2 = parse(read_file(data_path(golden::file_name(c, 2))));
    ASSERT_TRUE(v1.ok()) << v1.error().describe();
    ASSERT_TRUE(v2.ok()) << v2.error().describe();
    EXPECT_EQ(v1.value().stream.bytes(), v2.value().stream.bytes());

    Result<lzw::DecodeResult> d1 = v1.value().try_decode();
    Result<lzw::DecodeResult> d2 = v2.value().try_decode();
    ASSERT_TRUE(d1.ok()) << d1.error().describe();
    ASSERT_TRUE(d2.ok()) << d2.error().describe();
    EXPECT_EQ(d1.value().bits, d2.value().bits);
    EXPECT_EQ(d1.value().bits.size(), input.size());
    EXPECT_TRUE(input.covered_by(d1.value().bits));
  }
}

TEST(ContainerGolden, V3ImageDecodesToTheSourceTrits) {
  Result<CompressedImage> image =
      parse(read_file(data_path(golden::v3_file_name())));
  ASSERT_TRUE(image.ok()) << image.error().describe();
  EXPECT_EQ(image.value().container.version, 3u);
  // One record per codec wire id, in id order.
  ASSERT_EQ(image.value().chunks.size(), 6u);
  for (std::size_t i = 0; i < image.value().chunks.size(); ++i) {
    EXPECT_EQ(image.value().chunks[i].codec_id, i + 1);
  }

  const bits::TritVector source = golden::input();
  const Result<bits::TritVector> decoded = codec::decode_image(image.value());
  ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
  EXPECT_EQ(decoded.value().size(), source.size());
  EXPECT_TRUE(decoded.value().fully_specified());
  EXPECT_TRUE(source.covered_by(decoded.value()));
}

TEST(ContainerGolden, V3ImageReencodesByteForByte) {
  // The same chunks through the same codecs must give the archived bytes:
  // a payload layout that moved on both the encode and the decode side
  // still round-trips, but fails here.
  std::ostringstream out(std::ios::binary);
  golden::write_v3(out);
  EXPECT_EQ(out.str(), read_file(data_path(golden::v3_file_name())));
}

// ------------------------------------------------------- corruption matrix

TEST(ContainerCorruption, EverySingleBitFlipOfV2IsDetected) {
  const EncodeResult encoded = golden::encode(golden::cases().front());
  const std::string good = serialize(encoded, golden::v2_options());
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string bad = good;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1u << (bit % 8)));
    Result<CompressedImage> image = parse(bad);
    ASSERT_FALSE(image.ok()) << "flip of bit " << bit << " went undetected";
  }
}

TEST(ContainerCorruption, EverySingleBitFlipOfUnchunkedV2IsDetected) {
  const EncodeResult encoded = golden::encode(golden::cases().back());
  const std::string good = serialize(encoded, {.version = 2, .chunk_bytes = 0});
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string bad = good;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1u << (bit % 8)));
    ASSERT_FALSE(parse(bad).ok()) << "flip of bit " << bit << " went undetected";
  }
}

TEST(ContainerCorruption, EveryTruncationPointIsDetected) {
  const EncodeResult encoded = golden::encode(golden::cases().front());
  for (const ContainerOptions options :
       {ContainerOptions{.version = 1}, golden::v2_options()}) {
    const std::string good = serialize(encoded, options);
    for (std::size_t len = 0; len < good.size(); ++len) {
      Result<CompressedImage> image = parse(good.substr(0, len));
      ASSERT_FALSE(image.ok())
          << "v" << options.version << " truncated to " << len << " bytes accepted";
      const ErrorKind kind = image.error().kind;
      EXPECT_TRUE(kind == ErrorKind::TruncatedHeader ||
                  kind == ErrorKind::TruncatedPayload)
          << to_string(kind) << " at length " << len;
    }
  }
}

TEST(ContainerCorruption, SingleBitFlipsOfV1NeverCrash) {
  // TDCLZW1 has no integrity protection, so a flip may decode to garbage —
  // the contract is merely: typed error or clean decode, never UB/throw.
  const EncodeResult encoded = golden::encode(golden::cases().front());
  const std::string good = serialize(encoded, {.version = 1});
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string bad = good;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1u << (bit % 8)));
    Result<CompressedImage> image = parse(bad);
    if (image.ok()) (void)image.value().try_decode();  // must not crash
  }
}

TEST(ContainerCorruption, TypedErrorsForTargetedDamage) {
  const EncodeResult encoded = golden::encode(golden::cases().front());
  const std::string good = serialize(encoded, golden::v2_options());

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(parse(bad_magic).error().kind, ErrorKind::BadMagic);

  std::string bad_version = good;
  bad_version[8] = 4;  // version check fires before the header CRC
  EXPECT_EQ(parse(bad_version).error().kind, ErrorKind::UnsupportedVersion);

  std::string bad_header = good;
  bad_header[12] = static_cast<char>(bad_header[12] ^ 0x01);  // dict_size
  EXPECT_EQ(parse(bad_header).error().kind, ErrorKind::HeaderCrcMismatch);

  std::string bad_payload = good;
  bad_payload[good.size() - 1] = static_cast<char>(bad_payload[good.size() - 1] ^ 0x80);
  const Error chunk_err = parse(bad_payload).error();
  EXPECT_EQ(chunk_err.kind, ErrorKind::ChunkCrcMismatch);
  EXPECT_GE(chunk_err.chunk_index, 0);
  EXPECT_NE(chunk_err.describe().find("chunk"), std::string::npos);

  const std::string unchunked = serialize(encoded, {.version = 2, .chunk_bytes = 0});
  std::string bad_unchunked = unchunked;
  bad_unchunked[unchunked.size() - 1] =
      static_cast<char>(bad_unchunked[unchunked.size() - 1] ^ 0x80);
  EXPECT_EQ(parse(bad_unchunked).error().kind, ErrorKind::PayloadCrcMismatch);
}

TEST(ContainerCorruption, DictionaryAboveTheCapIsConfigMismatch) {
  // A header whose CRC vouches for N = 2^20 + 1: authentic bytes, but a
  // dictionary no reader will allocate.
  const EncodeResult encoded = golden::encode(golden::cases().front());
  std::string bytes = serialize(encoded, {.version = 2, .chunk_bytes = 0});
  const auto put_u32 = [&bytes](std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
  };
  put_u32(12, lzw::LzwConfig::kMaxDictSize + 1);  // dict_size
  put_u32(64, crc32(bytes.data(), 64));  // header CRC; unchunked, no table
  const Result<CompressedImage> image = parse(bytes);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.error().kind, ErrorKind::ConfigMismatch) << image.error().describe();
  EXPECT_NE(image.error().message.find("2^20"), std::string::npos);
}

TEST(ContainerCorruption, FuzzedHeadersNeverCrash) {
  const EncodeResult encoded = golden::encode(golden::cases().front());
  const std::string good = serialize(encoded, golden::v2_options());
  bits::Rng rng(0xfeedu);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string bad = good;
    const std::size_t mutations = 1 + rng.below(8);
    for (std::size_t m = 0; m < mutations; ++m) {
      bad[rng.below(std::min<std::size_t>(bad.size(), 96))] =
          static_cast<char>(rng.next_u64());
    }
    Result<CompressedImage> image = parse(bad);
    if (image.ok()) (void)image.value().try_decode();  // must not crash
  }
}

TEST(ContainerCorruption, RandomBlobsAreRejectedCleanly) {
  bits::Rng rng(0xb10b5u);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string blob(rng.below(300), '\0');
    for (char& b : blob) b = static_cast<char>(rng.next_u64());
    Result<CompressedImage> image = parse(blob);
    if (image.ok()) (void)image.value().try_decode();  // astronomically unlikely
  }
}

// --------------------------------------------------- decode-error positions

TEST(DecodePosition, StreamTooShortReportsCodeIndexAndBitOffset) {
  const EncodeResult encoded = golden::encode(golden::cases().front());
  bits::BitReader reader(encoded.stream);
  // Demand more scan bits than the codes expand to.
  Result<lzw::DecodeResult> r = lzw::Decoder(encoded.config).try_decode_stream(
      reader, encoded.code_count, encoded.original_bits + 64);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::StreamTooShort);
  EXPECT_EQ(r.error().code_index, static_cast<std::int64_t>(encoded.code_count));
  EXPECT_EQ(r.error().bit_offset,
            static_cast<std::int64_t>(encoded.stream.bit_count()));
  EXPECT_NE(r.error().describe().find("code"), std::string::npos);
}

TEST(DecodePosition, TruncatedCodeStreamReportsWhereItEnded) {
  const EncodeResult encoded = golden::encode(golden::cases().front());
  // Chop the packed stream mid-code: the strict reader must say which code.
  bits::BitWriter short_stream = bits::BitWriter::from_bytes(
      encoded.stream.bytes().data(), encoded.stream.bit_count() - 3);
  bits::BitReader reader(short_stream);
  Result<lzw::DecodeResult> r = lzw::Decoder(encoded.config).try_decode_stream(
      reader, encoded.code_count, encoded.original_bits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::CodeStreamTruncated);
  EXPECT_GE(r.error().code_index, 0);
  EXPECT_GE(r.error().bit_offset, 0);
}

TEST(DecodePosition, FakeKwKwKWithExistingChildIsRejected) {
  // Regression: codes {0, 0, 17} define (0,0) as code 16, then claim KwKwK
  // for code 17 — but the KwKwK entry would again be (0,0), which already
  // exists, so no entry is created and code 17 stays undefined. Accepting it
  // used to poison `prev` and build a self-parent dictionary node (infinite
  // expand loop / out-of-bounds in release builds).
  lzw::LzwConfig config{.dict_size = 64, .char_bits = 4, .entry_bits = 15};
  bits::BitWriter stream;
  for (const std::uint32_t code : {0u, 0u, 17u, 1u, 17u}) stream.write(code, 6);
  bits::BitReader reader(stream);
  Result<lzw::DecodeResult> r =
      lzw::Decoder(config).try_decode_stream(reader, 5, 30);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::UndefinedCode);
  EXPECT_EQ(r.error().code_index, 2);
  EXPECT_EQ(r.error().bit_offset, 12);
}

TEST(DecodePosition, UndefinedCodeReportsItsIndex) {
  lzw::LzwConfig config{.dict_size = 64, .char_bits = 4, .entry_bits = 15};
  // Codes are 6 bits; code 40 is far beyond anything defined after 2 steps.
  bits::BitWriter stream;
  for (const std::uint32_t code : {1u, 2u, 40u}) stream.write(code, 6);
  bits::BitReader reader(stream);
  Result<lzw::DecodeResult> r =
      lzw::Decoder(config).try_decode_stream(reader, 3, 12);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::UndefinedCode);
  EXPECT_EQ(r.error().code_index, 2);
  EXPECT_EQ(r.error().bit_offset, 12);
}

/// A stream whose dictionary freezes early: N = 160 leaves 32 entries after
/// the 128 literals, and C_MDATA = 63 lets every entry fit one table word,
/// so most codes run through the decode core's frozen phase. Codes are
/// 8 bits wide, so values in [160, 256) are encodable but undefined.
EncodeResult frozen_stream() {
  const lzw::LzwConfig config{.dict_size = 160, .char_bits = 7, .entry_bits = 63};
  bits::Rng rng(16);
  bits::TritVector input(4000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (!rng.chance(0.5)) input.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
  }
  EncodeResult encoded = lzw::Encoder(config).encode(input);
  EXPECT_EQ(encoded.telemetry.dict_full_events, 1u);
  return encoded;
}

/// The codes of a fixed-width encoder stream, read back at C_E bits.
std::vector<std::uint32_t> read_codes(const EncodeResult& encoded) {
  std::vector<std::uint32_t> codes;
  bits::BitReader reader(encoded.stream);
  for (std::uint64_t i = 0; i < encoded.code_count; ++i) {
    codes.push_back(static_cast<std::uint32_t>(reader.read(encoded.config.code_bits())));
  }
  return codes;
}

/// Decodes the first `head` codes of `encoded` on their own.
lzw::DecodeResult decode_head(const EncodeResult& encoded, std::size_t head) {
  std::vector<std::uint32_t> codes = read_codes(encoded);
  codes.resize(head);
  const bits::BitWriter stream = code_lists::pack_codes(encoded.config, codes);
  bits::BitReader reader(stream);
  return lzw::Decoder(encoded.config).decode_stream(reader, head, 0);
}

TEST(DecodePosition, UndefinedCodeAfterTheFreezeReportsItsIndex) {
  const EncodeResult encoded = frozen_stream();
  const lzw::LzwConfig& config = encoded.config;
  const std::size_t bad = encoded.code_count - 10;
  // The dictionary is already full before code `bad`.
  EXPECT_EQ(decode_head(encoded, bad).dict_codes_used, config.dict_size);

  std::vector<std::uint32_t> codes = read_codes(encoded);
  codes[bad] = 200;
  const bits::BitWriter stream = code_lists::pack_codes(config, codes);
  bits::BitReader reader(stream);
  const Result<lzw::DecodeResult> r = lzw::Decoder(config).try_decode_stream(
      reader, codes.size(), encoded.original_bits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::UndefinedCode);
  EXPECT_EQ(r.error().code_index, static_cast<std::int64_t>(bad));
  EXPECT_NE(r.error().message.find("code value 200 undefined (dictionary holds 160 codes"),
            std::string::npos)
      << r.error().message;
  EXPECT_EQ(r.error().bit_offset, static_cast<std::int64_t>(bad * 8));
}

TEST(DecodePosition, TruncationAfterTheFreezeReportsWhereItEnded) {
  const EncodeResult encoded = frozen_stream();
  const lzw::LzwConfig& config = encoded.config;
  const std::size_t cut = encoded.code_count - 10;
  const std::string message = "payload ends inside code " + std::to_string(cut) + " of " +
                              std::to_string(encoded.code_count) + " (8 bits needed)";

  // Packed stream: the first `cut` codes and three bits of the next.
  bits::BitWriter short_stream =
      bits::BitWriter::from_bytes(encoded.stream.bytes().data(), cut * 8 + 3);
  bits::BitReader reader(short_stream);
  const Result<lzw::DecodeResult> r = lzw::Decoder(config).try_decode_stream(
      reader, encoded.code_count, encoded.original_bits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::CodeStreamTruncated);
  EXPECT_EQ(r.error().code_index, static_cast<std::int64_t>(cut));
  EXPECT_EQ(r.error().bit_offset, static_cast<std::int64_t>(cut * 8));
  EXPECT_EQ(r.error().message, message);
}

/// N = 1024 with 4000 trits: the dictionary never fills, so every code is
/// served before the freeze.
EncodeResult open_stream() {
  const lzw::LzwConfig config{.dict_size = 1024, .char_bits = 7, .entry_bits = 63};
  bits::Rng rng(61);
  bits::TritVector input(4000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (!rng.chance(0.5)) input.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
  }
  EncodeResult encoded = lzw::Encoder(config).encode(input);
  EXPECT_EQ(encoded.telemetry.dict_full_events, 0u);
  return encoded;
}

// Each error path of the decode core, in the growing phase and in the
// frozen one, names the failing code and the stream bit where it started
// (where the codes ended, for StreamTooShort).
TEST(DecodePosition, EveryErrorPathReportsAStreamBitOffset) {
  for (const EncodeResult& encoded : {open_stream(), frozen_stream()}) {
    const lzw::LzwConfig& config = encoded.config;
    SCOPED_TRACE(config.describe());
    const std::size_t last = encoded.code_count - 1;
    const auto last_offset = static_cast<std::int64_t>(last * config.code_bits());
    const auto decode = [&](const bits::BitWriter& stream, std::uint64_t original_bits) {
      bits::BitReader reader(stream);
      return lzw::Decoder(config).try_decode_stream(reader, encoded.code_count,
                                                    original_bits);
    };

    const Result<lzw::DecodeResult> truncated = decode(
        bits::BitWriter::from_bytes(encoded.stream.bytes().data(),
                                    encoded.stream.bit_count() - 1),
        encoded.original_bits);
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.error().kind, ErrorKind::CodeStreamTruncated);
    EXPECT_EQ(truncated.error().code_index, static_cast<std::int64_t>(last));
    EXPECT_EQ(truncated.error().bit_offset, last_offset);

    std::vector<std::uint32_t> codes = read_codes(encoded);
    // Above every defined code and not the KwKwK code, in either phase.
    codes[last] = (1u << config.code_bits()) - 1;
    const Result<lzw::DecodeResult> undefined =
        decode(code_lists::pack_codes(config, codes), encoded.original_bits);
    ASSERT_FALSE(undefined.ok());
    EXPECT_EQ(undefined.error().kind, ErrorKind::UndefinedCode);
    EXPECT_EQ(undefined.error().code_index, static_cast<std::int64_t>(last));
    EXPECT_EQ(undefined.error().bit_offset, last_offset);

    const Result<lzw::DecodeResult> too_short =
        decode(encoded.stream, encoded.input_chars * config.char_bits + 1);
    ASSERT_FALSE(too_short.ok());
    EXPECT_EQ(too_short.error().kind, ErrorKind::StreamTooShort);
    EXPECT_EQ(too_short.error().code_index, static_cast<std::int64_t>(encoded.code_count));
    EXPECT_EQ(too_short.error().bit_offset,
              static_cast<std::int64_t>(encoded.stream.bit_count()));
  }
}

// ------------------------------------------------------------ decode bound

/// v1 or v2 container bytes written field by field, CRCs included, so a
/// test can build headers write_image refuses to write. v2 frames the
/// payload in 4096-byte chunks, as write_image does by default.
std::string handmade_image(std::uint32_t version, const lzw::LzwConfig& config,
                           std::uint64_t original_bits, std::uint64_t code_count,
                           const bits::BitWriter& stream) {
  constexpr std::uint32_t kChunkBytes = 4096;
  const std::vector<std::uint8_t>& payload = stream.bytes();
  std::vector<std::uint8_t> h;
  const std::string magic = version == 1 ? "TDCLZW1" : "TDCLZW2";
  h.insert(h.end(), magic.begin(), magic.end());
  h.push_back(0);
  if (version == 2) bits::put_u32(h, 2);
  bits::put_u32(h, config.dict_size);
  bits::put_u32(h, config.char_bits);
  bits::put_u32(h, config.entry_bits);
  bits::put_u32(h, config.variable_width ? 1u : 0u);
  bits::put_u64(h, original_bits);
  bits::put_u64(h, code_count);
  bits::put_u64(h, stream.bit_count());
  if (version == 2) {
    const std::size_t chunks = (payload.size() + kChunkBytes - 1) / kChunkBytes;
    bits::put_u32(h, crc32(payload));
    bits::put_u32(h, kChunkBytes);
    bits::put_u32(h, static_cast<std::uint32_t>(chunks));
    for (std::size_t i = 0; i < chunks; ++i) {
      const std::size_t begin = i * kChunkBytes;
      const std::size_t end = std::min<std::size_t>(begin + kChunkBytes, payload.size());
      bits::put_u32(h, crc32(payload.data() + begin, end - begin));
    }
    bits::put_u32(h, crc32(h));
  }
  h.insert(h.end(), payload.begin(), payload.end());
  return std::string(h.begin(), h.end());
}

/// The longest expansion `count` codes can have under `config` (C_C = 1):
/// literal 0, then each new entry by KwKwK, one character longer than the
/// last, until entries reach max_entry_chars(); then that entry again and
/// again. Code i expands to exactly min(max_entry_chars(), i + 1) zeros.
std::vector<std::uint32_t> longest_codes(const lzw::LzwConfig& config, std::uint64_t count) {
  std::vector<std::uint32_t> codes;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t chars = std::min<std::uint64_t>(config.max_entry_chars(), i + 1);
    codes.push_back(chars == 1 ? 0u
                               : config.first_code() + static_cast<std::uint32_t>(chars) - 2);
  }
  return codes;
}

// A CRC-valid decode bomb: N = 2^20, C_C = 1, C_MDATA = 2^32 - 1 and a
// KwKwK chain of 30,000 codes truthfully declaring k(k+1)/2 = 450,015,000
// bits from a 75 KB image. The C_MDATA cap refuses it at the header, so
// nothing is decoded.
TEST(DecodeBound, KwKwKChainBombIsRefusedAtTheHeader) {
  const lzw::LzwConfig config{.dict_size = 1u << 20, .char_bits = 1,
                              .entry_bits = 0xFFFFFFFFu};
  constexpr std::uint64_t kCodes = 30000;
  const bits::BitWriter stream = code_lists::pack_codes(config, longest_codes(config, kCodes));
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("v" + std::to_string(version));
    const std::string bytes =
        handmade_image(version, config, kCodes * (kCodes + 1) / 2, kCodes, stream);
    if (version == 2) {
      EXPECT_EQ(bytes.size(), 75144u);
    }
    const Result<CompressedImage> image = parse(bytes);
    ASSERT_FALSE(image.ok());
    EXPECT_EQ(image.error().kind, ErrorKind::ConfigMismatch);
    EXPECT_NE(image.error().message.find("511-bit cap"), std::string::npos)
        << image.error().message;
  }
}

// Under the cap, original_bits may reach exactly what the codes can decode
// to (LzwConfig::max_decoded_bits), inside the ramp and past it, and not
// one bit more.
TEST(DecodeBound, OriginalBitsUpToTheExactBoundDecode) {
  const lzw::LzwConfig config{.dict_size = 1024, .char_bits = 1, .entry_bits = 8};
  for (const std::uint64_t count : {5u, 20u}) {
    const std::uint64_t bound = config.max_decoded_bits(count);
    EXPECT_EQ(bound, count == 5 ? 15u : 36u + 12u * 8u);
    const bits::BitWriter stream =
        code_lists::pack_codes(config, longest_codes(config, count));
    for (const std::uint32_t version : {1u, 2u}) {
      SCOPED_TRACE("v" + std::to_string(version) + " codes " + std::to_string(count));
      const Result<CompressedImage> at =
          parse(handmade_image(version, config, bound, count, stream));
      ASSERT_TRUE(at.ok()) << at.error().describe();
      const Result<lzw::DecodeResult> decoded = at.value().try_decode();
      ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
      EXPECT_EQ(decoded.value().bits, bits::TritVector(bound, bits::Trit::Zero));

      const Result<CompressedImage> above =
          parse(handmade_image(version, config, bound + 1, count, stream));
      ASSERT_FALSE(above.ok());
      EXPECT_EQ(above.error().kind, ErrorKind::ConfigMismatch);
      EXPECT_NE(above.error().message.find("codes can decode to"), std::string::npos)
          << above.error().message;
    }
  }
}

// A v3 LZW record is held to the same cap and bound by the chunk-payload
// reader, and no writer emits a C_MDATA any reader refuses.
TEST(DecodeBound, LzwRecordsAndWritersKeepTheCap) {
  const codec::Codec* lzw_codec =
      codec::codec_for_id(static_cast<std::uint8_t>(codec::CodecId::Lzw));
  ASSERT_NE(lzw_codec, nullptr);
  const auto record = [](const lzw::LzwConfig& config, std::uint64_t count) {
    std::vector<std::uint8_t> payload;
    bits::put_u32(payload, config.dict_size);
    bits::put_u32(payload, config.char_bits);
    bits::put_u32(payload, config.entry_bits);
    bits::put_u32(payload, 0);
    bits::put_u64(payload, count);
    bits::put_stream(payload, code_lists::pack_codes(config, longest_codes(config, count)));
    return payload;
  };
  const lzw::LzwConfig capped{.dict_size = 1024, .char_bits = 1, .entry_bits = 8};
  const std::uint64_t bound = capped.max_decoded_bits(20);
  const Result<bits::TritVector> at = lzw_codec->decompress_chunk(record(capped, 20), bound);
  ASSERT_TRUE(at.ok()) << at.error().describe();
  EXPECT_EQ(at.value().size(), bound);
  const Result<bits::TritVector> above =
      lzw_codec->decompress_chunk(record(capped, 20), bound + 1);
  ASSERT_FALSE(above.ok());
  EXPECT_EQ(above.error().kind, ErrorKind::InvalidInput);

  lzw::LzwConfig wide{.dict_size = 1u << 20, .char_bits = 1, .entry_bits = 512};
  const Result<bits::TritVector> bomb = lzw_codec->decompress_chunk(record(wide, 3000), 6);
  ASSERT_FALSE(bomb.ok());
  EXPECT_NE(bomb.error().message.find("511-bit cap"), std::string::npos);

  // The writers: a whole-stream container, the v3 configurator block and
  // an LZW chunk payload.
  wide.dict_size = 1024;
  const EncodeResult encoded = lzw::Encoder(wide).encode(bits::TritVector(64, bits::Trit::X));
  std::ostringstream out(std::ios::binary);
  EXPECT_THROW(lzw::write_image(out, encoded), std::invalid_argument);
  EXPECT_THROW(lzw::write_image_v3(out, wide, 0, 4096, {}), std::invalid_argument);
  const Result<codec::CompressedChunk> chunk =
      codec::make_lzw_codec(wide)->compress_chunk(bits::TritVector(64, bits::Trit::X));
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.error().kind, ErrorKind::ConfigMismatch);
}

}  // namespace
}  // namespace tdc
