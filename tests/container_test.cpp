// The hardened container contract, exercised end to end:
//
//  * round trips for every tiebreak x code width x container version,
//  * byte-stable golden files (tests/data/) for both on-disk formats —
//    TDCLZW1 written by older code must decode bit-identically forever,
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
#include "container_golden.h"
#include "core/crc32.h"
#include "core/error.h"
#include "lzw/decode_core.h"
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
      EXPECT_EQ(img.code_count, encoded.codes.size());
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
      reader, encoded.codes.size(), encoded.original_bits + 64);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::StreamTooShort);
  EXPECT_EQ(r.error().code_index,
            static_cast<std::int64_t>(encoded.codes.size()));
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
      reader, encoded.codes.size(), encoded.original_bits);
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

TEST(DecodePosition, UndefinedCodeAfterTheFreezeReportsItsIndex) {
  const EncodeResult encoded = frozen_stream();
  const lzw::LzwConfig& config = encoded.config;
  const std::size_t bad = encoded.codes.size() - 10;
  // The dictionary is already full before code `bad`.
  const std::vector<std::uint32_t> head(encoded.codes.begin(), encoded.codes.begin() + bad);
  EXPECT_EQ(lzw::Decoder(config).decode(head, 0).dict_codes_used, config.dict_size);

  std::vector<std::uint32_t> codes = encoded.codes;
  codes[bad] = 200;
  bits::BitWriter stream;
  for (const std::uint32_t code : codes) stream.write(code, config.code_bits());
  bits::BitReader reader(stream);
  const Result<lzw::DecodeResult> from_stream = lzw::Decoder(config).try_decode_stream(
      reader, codes.size(), encoded.original_bits);
  const Result<lzw::DecodeResult> from_list =
      lzw::Decoder(config).try_decode(codes, encoded.original_bits);
  for (const auto* r : {&from_stream, &from_list}) {
    ASSERT_FALSE(r->ok());
    EXPECT_EQ(r->error().kind, ErrorKind::UndefinedCode);
    EXPECT_EQ(r->error().code_index, static_cast<std::int64_t>(bad));
    EXPECT_NE(r->error().message.find(
                  "code value 200 undefined (dictionary holds 160 codes"),
              std::string::npos)
        << r->error().message;
  }
  EXPECT_EQ(from_stream.error().bit_offset, static_cast<std::int64_t>(bad * 8));
  EXPECT_EQ(from_list.error().bit_offset, -1);
}

TEST(DecodePosition, NoCodeSentinelAfterTheFreezeIsUndefined) {
  // 0xFFFFFFFF equals kNoCode, which Dictionary::next_code() returns once
  // the dictionary is full. In a code list it must not pass for the KwKwK
  // code, whether the frozen table (60-bit entries) or the offset copies
  // (65-bit entries) serve the codes after the freeze. Literals that never
  // repeat back to back leave every (p, p) entry undefined, so the last
  // literal before the sentinel meets the rest of the KwKwK test.
  bits::Rng rng(0x5e47u);
  std::vector<std::uint32_t> codes{0};
  while (codes.size() < 300) {
    const auto c = static_cast<std::uint32_t>(rng.below(32));
    if (c != codes.back()) codes.push_back(c);
  }
  const std::vector<std::uint32_t> head = codes;
  codes.push_back(0xFFFFFFFFu);
  for (const lzw::LzwConfig& config :
       {lzw::LzwConfig{.dict_size = 160, .char_bits = 5, .entry_bits = 63},
        lzw::LzwConfig{.dict_size = 160, .char_bits = 5, .entry_bits = 65}}) {
    SCOPED_TRACE(config.describe());
    EXPECT_EQ(lzw::Decoder(config).decode(head, 0).dict_codes_used, config.dict_size);
    const Result<lzw::DecodeResult> r = lzw::Decoder(config).try_decode(codes, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, ErrorKind::UndefinedCode);
    EXPECT_EQ(r.error().code_index, 300);
  }
}

TEST(DecodePosition, TruncationAfterTheFreezeReportsWhereItEnded) {
  const EncodeResult encoded = frozen_stream();
  const lzw::LzwConfig& config = encoded.config;
  const std::size_t cut = encoded.codes.size() - 10;
  const std::string message = "payload ends inside code " + std::to_string(cut) + " of " +
                              std::to_string(encoded.codes.size()) + " (8 bits needed)";

  // Packed stream: the first `cut` codes and three bits of the next.
  bits::BitWriter short_stream =
      bits::BitWriter::from_bytes(encoded.stream.bytes().data(), cut * 8 + 3);
  bits::BitReader reader(short_stream);
  const Result<lzw::DecodeResult> from_stream = lzw::Decoder(config).try_decode_stream(
      reader, encoded.codes.size(), encoded.original_bits);
  ASSERT_FALSE(from_stream.ok());
  EXPECT_EQ(from_stream.error().kind, ErrorKind::CodeStreamTruncated);
  EXPECT_EQ(from_stream.error().code_index, static_cast<std::int64_t>(cut));
  EXPECT_EQ(from_stream.error().bit_offset, static_cast<std::int64_t>(cut * 8));
  EXPECT_EQ(from_stream.error().message, message);

  // Code list: only the first `cut` codes, all of them demanded.
  const std::vector<std::uint32_t> head(encoded.codes.begin(), encoded.codes.begin() + cut);
  lzw::ListCodes source{.codes = head};
  const Result<lzw::DecodeResult> from_list =
      lzw::decode_codes(config, source, encoded.codes.size(), encoded.original_bits,
                        [](const lzw::CodeStep&) {});
  ASSERT_FALSE(from_list.ok());
  EXPECT_EQ(from_list.error().kind, ErrorKind::CodeStreamTruncated);
  EXPECT_EQ(from_list.error().code_index, static_cast<std::int64_t>(cut));
  EXPECT_EQ(from_list.error().bit_offset, -1);
  EXPECT_EQ(from_list.error().message, message);
}

}  // namespace
}  // namespace tdc
