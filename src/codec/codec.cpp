#include "codec/codec.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "bits/bitstream.h"
#include "bits/wire.h"
#include "codec/bwt.h"
#include "lzw/decoder.h"
#include "obs/trace.h"

namespace tdc::codec {

double ChunkFeatures::care_entropy() const {
  if (care == 0) return 0.0;
  const double p = static_cast<double>(ones) / static_cast<double>(care);
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -(p * std::log2(p) + (1.0 - p) * std::log2(1.0 - p));
}

ChunkFeatures analyze_chunk(const bits::TritVector& chunk) {
  return ChunkFeatures{.trits = chunk.size(),
                       .care = chunk.care_count(),
                       .ones = chunk.ones_count(),
                       .runs = chunk.repeat_fill_runs()};
}

const char* to_string(CodecId id) {
  switch (id) {
    case CodecId::Lzw: return "lzw";
    case CodecId::Lz77: return "lz77";
    case CodecId::Rle: return "rle";
    case CodecId::Huffman: return "huffman";
    case CodecId::LfsrReseed: return "lfsr";
    case CodecId::Bwt: return "bwt";
  }
  return "unknown";
}

std::string known_codec_names() {
  return "lzw, lz77, rle, huffman, lfsr, bwt";
}

Result<CodecId> parse_codec_id(const std::string& token) {
  for (const CodecId id : {CodecId::Lzw, CodecId::Lz77, CodecId::Rle,
                           CodecId::Huffman, CodecId::LfsrReseed, CodecId::Bwt}) {
    if (token == to_string(id)) return id;
  }
  return Error{ErrorKind::InvalidInput,
               "unknown codec '" + token + "' (known: " + known_codec_names() + ")"};
}

namespace {

/// Backends predating the Result taxonomy report misuse by throwing; the
/// adapter funnels that into a typed ConfigMismatch so registry iteration
/// never terminates on one misconfigured entry.
template <typename T, typename Fn>
Result<T> guarded(const Fn& fn) {
  try {
    return fn();
  } catch (const TdcErrorBase& e) {
    return e.error();
  } catch (const std::exception& e) {
    return Error{ErrorKind::ConfigMismatch, e.what()};
  }
}

// ------------------------------------------------------ payload wire format
//
// Every chunk payload is self-contained: the fields the decoder needs
// (per-codec configuration, codebooks, bit counts) ride in-band, so the
// canonical registry instance for a codec id can expand any chunk
// regardless of the encode-time parameterization. The byte layout is
// bits/wire.h's.

using bits::ByteCursor;
using bits::put_stream;
using bits::put_u32;
using bits::put_u64;

Error malformed(const std::string& codec, const std::string& what) {
  return Error{ErrorKind::InvalidInput, codec + ": malformed chunk payload: " + what};
}

// ---------------------------------------------------------------- adapters

class LzwCodec final : public Codec {
 public:
  LzwCodec(const lzw::LzwConfig& config, lzw::Tiebreak tiebreak, std::string label)
      : config_(config), tiebreak_(tiebreak), label_(std::move(label)) {}

  std::string name() const override { return label_; }
  CodecId id() const override { return CodecId::Lzw; }

  /// Model: dynamic X assignment folds don't-cares into matches, so the
  /// code stream scales with the specified information plus a per-trit
  /// framing floor. Calibrated loosely against the table3 profiles.
  std::uint64_t estimate_bits(const ChunkFeatures& f) const override {
    if (f.trits == 0) return 0;
    const double bits = 0.10 * static_cast<double>(f.trits) +
                        0.45 * static_cast<double>(f.care) * f.care_entropy();
    return static_cast<std::uint64_t>(bits) + 1;
  }

  Result<CompressedChunk> compress_chunk(const bits::TritVector& chunk) const override {
    return guarded<CompressedChunk>([&]() -> Result<CompressedChunk> {
      // No payload is written that decompress_chunk would refuse.
      if (std::string why = config_.check_stored(); !why.empty()) {
        return Error{ErrorKind::ConfigMismatch, label_ + ": " + why};
      }
      const lzw::EncodeResult encoded = lzw::Encoder(config_, tiebreak_).encode(chunk);
      CompressedChunk out;
      out.stats = CodecStats{label_, encoded.original_bits, encoded.compressed_bits()};
      put_u32(out.payload, encoded.config.dict_size);
      put_u32(out.payload, encoded.config.char_bits);
      put_u32(out.payload, encoded.config.entry_bits);
      put_u32(out.payload, encoded.config.variable_width ? 1u : 0u);
      put_u64(out.payload, encoded.code_count);
      put_stream(out.payload, encoded.stream);
      return out;
    });
  }

  Result<bits::TritVector> decompress_chunk(const std::vector<std::uint8_t>& payload,
                                            std::uint64_t trit_count) const override {
    ByteCursor cur{payload};
    lzw::LzwConfig config;
    std::uint32_t flags = 0;
    std::uint64_t code_count = 0;
    bits::BitWriter stream;
    if (!cur.get_u32(config.dict_size) || !cur.get_u32(config.char_bits) ||
        !cur.get_u32(config.entry_bits) || !cur.get_u32(flags) ||
        !cur.get_u64(code_count) || !cur.get_stream(stream) || !cur.exhausted()) {
      return malformed(label_, "truncated LZW fields");
    }
    config.variable_width = (flags & 1u) != 0;
    if (std::string why = config.check_stored(); !why.empty()) {
      return malformed(label_, why);
    }
    if (code_count > stream.bit_count()) {
      return malformed(label_, "code_count exceeds the stream's bit budget");
    }
    if (trit_count > config.max_decoded_bits(code_count)) {
      return malformed(label_, std::to_string(trit_count) + " trits exceed what " +
                                   std::to_string(code_count) + " codes can decode to");
    }
    bits::BitReader reader(stream);
    Result<lzw::DecodeResult> decoded =
        lzw::Decoder(config).try_decode_stream(reader, code_count, trit_count);
    if (!decoded.ok()) return decoded.error();
    return std::move(decoded).take().bits;
  }

 private:
  lzw::LzwConfig config_;
  lzw::Tiebreak tiebreak_;
  std::string label_;
};

class Lz77Codec final : public Codec {
 public:
  Lz77Codec(const Lz77Config& config, std::string label)
      : config_(config), label_(std::move(label)) {}

  std::string name() const override { return label_; }
  CodecId id() const override { return CodecId::Lz77; }

  /// Model: literals dominate high-entropy chunks (2 bits each), matches
  /// absorb the rest at roughly one token per window-worth of repetition.
  std::uint64_t estimate_bits(const ChunkFeatures& f) const override {
    if (f.trits == 0) return 0;
    const double bits = 0.15 * static_cast<double>(f.trits) +
                        0.60 * static_cast<double>(f.care) * f.care_entropy();
    return static_cast<std::uint64_t>(bits) + 1;
  }

  Result<CompressedChunk> compress_chunk(const bits::TritVector& chunk) const override {
    return guarded<CompressedChunk>([&]() -> Result<CompressedChunk> {
      const Lz77Result encoded = lz77_encode(chunk, config_);
      CompressedChunk out;
      out.stats = CodecStats{label_, encoded.original_bits, encoded.stream.bit_count()};
      put_u32(out.payload, encoded.config.window_bits);
      put_u32(out.payload, encoded.config.length_bits);
      put_stream(out.payload, encoded.stream);
      return out;
    });
  }

  Result<bits::TritVector> decompress_chunk(const std::vector<std::uint8_t>& payload,
                                            std::uint64_t trit_count) const override {
    ByteCursor cur{payload};
    Lz77Config config;
    bits::BitWriter stream;
    if (!cur.get_u32(config.window_bits) || !cur.get_u32(config.length_bits) ||
        !cur.get_stream(stream) || !cur.exhausted()) {
      return malformed(label_, "truncated LZ77 fields");
    }
    if (config.window_bits < 1 || config.window_bits > 30 ||
        config.length_bits < 1 || config.length_bits > 30) {
      return malformed(label_, "LZ77 field widths out of range");
    }
    return guarded<bits::TritVector>([&]() -> Result<bits::TritVector> {
      return lz77_decode(stream, trit_count, config);
    });
  }

 private:
  Lz77Config config_;
  std::string label_;
};

/// Shared by the fixed-parameter and grid-search RLE adapters: both emit
/// the same wire format (the chosen RleConfig rides in the payload).
CompressedChunk pack_rle(const RleResult& encoded, const std::string& label) {
  CompressedChunk out;
  out.stats = CodecStats{label, encoded.original_bits, encoded.stream.bit_count()};
  put_u32(out.payload, encoded.config.run_code == RunCode::Fdr ? 1u : 0u);
  put_u32(out.payload, encoded.config.golomb_m);
  put_stream(out.payload, encoded.stream);
  return out;
}

Result<bits::TritVector> unpack_rle(const std::vector<std::uint8_t>& payload,
                                    std::uint64_t trit_count, const std::string& label) {
  ByteCursor cur{payload};
  std::uint32_t run_code = 0;
  RleConfig config;
  bits::BitWriter stream;
  if (!cur.get_u32(run_code) || !cur.get_u32(config.golomb_m) ||
      !cur.get_stream(stream) || !cur.exhausted()) {
    return malformed(label, "truncated RLE fields");
  }
  if (run_code > 1) return malformed(label, "unknown run code");
  config.run_code = run_code == 1 ? RunCode::Fdr : RunCode::Golomb;
  if (config.run_code == RunCode::Golomb &&
      (config.golomb_m < 1 || config.golomb_m > (1u << 20))) {
    return malformed(label, "Golomb divisor out of range");
  }
  return guarded<bits::TritVector>([&]() -> Result<bits::TritVector> {
    return alternating_rle_decode(stream, trit_count, config);
  });
}

/// Model shared by both RLE adapters: one Golomb word per run, sized by the
/// mean run length against a mid-grid divisor.
/// Model: a Golomb-coded run with a divisor tuned near the mean run length
/// costs roughly 2 quotient bits plus log2(mean) remainder bits, so the
/// stream scales with the run count, not the trit count.
std::uint64_t estimate_rle_bits(const ChunkFeatures& f) {
  if (f.trits == 0) return 0;
  const std::uint64_t runs = f.runs == 0 ? 1 : f.runs;
  const double mean_run = static_cast<double>(f.trits) / static_cast<double>(runs);
  const double per_run = 2.0 + std::log2(mean_run + 1.0);
  return static_cast<std::uint64_t>(static_cast<double>(runs) * per_run) + 1;
}

class AlternatingRleCodec final : public Codec {
 public:
  AlternatingRleCodec(const RleConfig& config, std::string label)
      : config_(config), label_(std::move(label)) {}

  std::string name() const override { return label_; }
  CodecId id() const override { return CodecId::Rle; }
  std::uint64_t estimate_bits(const ChunkFeatures& f) const override {
    return estimate_rle_bits(f);
  }

  Result<CompressedChunk> compress_chunk(const bits::TritVector& chunk) const override {
    return guarded<CompressedChunk>([&]() -> Result<CompressedChunk> {
      return pack_rle(alternating_rle_encode(chunk, config_), label_);
    });
  }

  Result<bits::TritVector> decompress_chunk(const std::vector<std::uint8_t>& payload,
                                            std::uint64_t trit_count) const override {
    return unpack_rle(payload, trit_count, label_);
  }

 private:
  RleConfig config_;
  std::string label_;
};

class BestRleCodec final : public Codec {
 public:
  explicit BestRleCodec(std::string label) : label_(std::move(label)) {}

  std::string name() const override { return label_; }
  CodecId id() const override { return CodecId::Rle; }
  std::uint64_t estimate_bits(const ChunkFeatures& f) const override {
    return estimate_rle_bits(f);
  }

  Result<CompressedChunk> compress_chunk(const bits::TritVector& chunk) const override {
    return guarded<CompressedChunk>([&]() -> Result<CompressedChunk> {
      return pack_rle(best_alternating_rle(chunk), label_);
    });
  }

  Result<bits::TritVector> decompress_chunk(const std::vector<std::uint8_t>& payload,
                                            std::uint64_t trit_count) const override {
    return unpack_rle(payload, trit_count, label_);
  }

 private:
  std::string label_;
};

class HuffmanCodec final : public Codec {
 public:
  HuffmanCodec(const HuffmanConfig& config, std::string label)
      : config_(config), label_(std::move(label)) {}

  std::string name() const override { return label_; }
  CodecId id() const override { return CodecId::Huffman; }

  /// Model: a coded block costs a few prefix bits, an escaped block the
  /// prefix plus its raw bits; the escape fraction tracks the entropy.
  std::uint64_t estimate_bits(const ChunkFeatures& f) const override {
    if (f.trits == 0) return 0;
    const std::uint64_t blocks =
        (f.trits + config_.block_bits - 1) / std::max(1u, config_.block_bits);
    const double per_block = 2.0 + 6.0 * f.care_entropy() +
                             static_cast<double>(config_.block_bits) * 0.25 * f.care_entropy();
    return static_cast<std::uint64_t>(static_cast<double>(blocks) * per_block) + 1;
  }

  Result<CompressedChunk> compress_chunk(const bits::TritVector& chunk) const override {
    return guarded<CompressedChunk>([&]() -> Result<CompressedChunk> {
      const HuffmanResult encoded = huffman_encode(chunk, config_);
      CompressedChunk out;
      // Paper accounting: the codebook is configurator state, out-of-band;
      // the wire payload below carries it in-band regardless.
      out.stats = CodecStats{label_, encoded.original_bits, encoded.stream.bit_count()};
      put_huffman_section(out.payload, encoded);
      return out;
    });
  }

  Result<bits::TritVector> decompress_chunk(const std::vector<std::uint8_t>& payload,
                                            std::uint64_t trit_count) const override {
    ByteCursor cur{payload};
    HuffmanResult encoded;
    if (std::string why = get_huffman_section(cur, encoded); !why.empty()) {
      return malformed(label_, why);
    }
    if (encoded.config.block_bits < 1 || encoded.config.block_bits > 64) {
      return malformed(label_, "block size out of range");
    }
    encoded.original_bits = trit_count;
    return guarded<bits::TritVector>([&]() -> Result<bits::TritVector> {
      return huffman_decode(encoded);
    });
  }

 private:
  HuffmanConfig config_;
  std::string label_;
};

class LfsrReseedCodec final : public Codec {
 public:
  LfsrReseedCodec(std::uint32_t width, const LfsrReseedConfig& config,
                  std::string label)
      : width_(width), config_(config), label_(std::move(label)) {}

  std::string name() const override { return label_; }
  CodecId id() const override { return CodecId::LfsrReseed; }

  /// Model: one seed per pattern, sized by the mean care count plus the
  /// auto-sizing margin — exact when every cube solves, optimistic when
  /// care counts are skewed.
  std::uint64_t estimate_bits(const ChunkFeatures& f) const override {
    if (f.trits == 0 || width_ == 0) return 0;
    const std::uint64_t patterns = (f.trits + width_ - 1) / width_;
    return patterns * (1 + config_.margin) + f.care;
  }

  Result<CompressedChunk> compress_chunk(const bits::TritVector& chunk) const override {
    if (width_ == 0) {
      return Error{ErrorKind::ConfigMismatch,
                   label_ + ": pattern width must be positive"};
    }
    return guarded<CompressedChunk>([&]() -> Result<CompressedChunk> {
      // Cut the flat scan stream into per-pattern cubes; the trailing
      // partial cube keeps its implicit X padding.
      std::vector<bits::TritVector> cubes;
      for (std::size_t pos = 0; pos < chunk.size(); pos += width_) {
        const std::size_t len = std::min<std::size_t>(width_, chunk.size() - pos);
        bits::TritVector cube = chunk.slice(pos, len);
        while (cube.size() < width_) cube.push_back(bits::Trit::X);
        cubes.push_back(std::move(cube));
      }
      const LfsrReseedResult encoded = lfsr_reseed_encode(cubes, config_);
      CompressedChunk out;
      out.stats = CodecStats{label_, chunk.size(), encoded.compressed_bits()};
      put_u32(out.payload, encoded.width);
      put_u32(out.payload, encoded.seed_bits);
      put_u64(out.payload, encoded.seeds.size());
      bits::BitWriter stream;
      for (std::size_t p = 0; p < encoded.seeds.size(); ++p) {
        stream.write_bit(encoded.escaped[p]);
        if (encoded.escaped[p]) {
          // Raw escapes are fully specified (0-filled) by the encoder.
          const bits::TritVector& raw = encoded.raw[p];
          for (std::size_t i = 0; i < encoded.width; ++i) {
            stream.write_bit(raw.get(i) == bits::Trit::One);
          }
        } else {
          for (std::size_t i = 0; i < encoded.seed_bits; ++i) {
            stream.write_bit(encoded.seeds[p].get(i));
          }
        }
      }
      put_stream(out.payload, stream);
      return out;
    });
  }

  Result<bits::TritVector> decompress_chunk(const std::vector<std::uint8_t>& payload,
                                            std::uint64_t trit_count) const override {
    ByteCursor cur{payload};
    LfsrReseedResult encoded;
    std::uint64_t patterns = 0;
    bits::BitWriter stream;
    if (!cur.get_u32(encoded.width) || !cur.get_u32(encoded.seed_bits) ||
        !cur.get_u64(patterns) || !cur.get_stream(stream) || !cur.exhausted()) {
      return malformed(label_, "truncated reseed fields");
    }
    if (trit_count == 0) {
      // An empty chunk has no patterns (and an unconstrained width: the
      // encoder had no cube to infer one from).
      if (patterns != 0) {
        return malformed(label_, "pattern count does not match the trit count");
      }
      return bits::TritVector{};
    }
    if (encoded.width < 1 || encoded.width > (1u << 20) ||
        encoded.seed_bits > (1u << 20)) {
      return malformed(label_, "pattern geometry out of range");
    }
    const std::uint64_t expected =
        (trit_count + encoded.width - 1) / encoded.width;
    if (patterns != expected) {
      return malformed(label_, "pattern count does not match the trit count");
    }
    encoded.original_bits = trit_count;
    bits::BitReader reader(stream);
    for (std::uint64_t p = 0; p < patterns; ++p) {
      if (reader.remaining() < 1) return malformed(label_, "seed stream exhausted");
      const bool escaped = reader.read_bit();
      encoded.escaped.push_back(escaped);
      if (escaped) {
        if (reader.remaining() < encoded.width) {
          return malformed(label_, "seed stream exhausted");
        }
        bits::TritVector raw;
        for (std::uint32_t i = 0; i < encoded.width; ++i) {
          raw.push_back(reader.read_bit() ? bits::Trit::One : bits::Trit::Zero);
        }
        encoded.seeds.emplace_back();
        encoded.raw.push_back(std::move(raw));
      } else {
        if (reader.remaining() < encoded.seed_bits) {
          return malformed(label_, "seed stream exhausted");
        }
        bits::Gf2Row seed(encoded.seed_bits);
        for (std::uint32_t i = 0; i < encoded.seed_bits; ++i) {
          seed.set(i, reader.read_bit());
        }
        encoded.seeds.push_back(std::move(seed));
        encoded.raw.emplace_back();
      }
    }
    return guarded<bits::TritVector>([&]() -> Result<bits::TritVector> {
      bits::TritVector decoded;
      for (const bits::TritVector& p : lfsr_reseed_expand(encoded)) decoded.append(p);
      if (decoded.size() < trit_count) {
        return Error{ErrorKind::StreamTooShort,
                     label_ + ": expansion holds " + std::to_string(decoded.size()) +
                         " of " + std::to_string(trit_count) + " bits"};
      }
      return decoded.size() == trit_count
                 ? std::move(decoded)
                 : decoded.slice(0, static_cast<std::size_t>(trit_count));
    });
  }

 private:
  std::uint32_t width_;
  LfsrReseedConfig config_;
  std::string label_;
};

class BwtCodec final : public Codec {
 public:
  explicit BwtCodec(std::string label) : label_(std::move(label)) {}

  std::string name() const override { return label_; }
  CodecId id() const override { return CodecId::Bwt; }

  /// Model: BWT+MTF concentrates probability mass on low MTF ranks, so the
  /// coded size tracks the entropy with a small per-trit floor.
  std::uint64_t estimate_bits(const ChunkFeatures& f) const override {
    if (f.trits == 0) return 0;
    const double bits = 0.06 * static_cast<double>(f.trits) +
                        0.55 * static_cast<double>(f.trits) * f.care_entropy();
    return static_cast<std::uint64_t>(bits) + 1;
  }

  Result<CompressedChunk> compress_chunk(const bits::TritVector& chunk) const override {
    return guarded<CompressedChunk>([&]() -> Result<CompressedChunk> {
      BwtResult encoded = bwt_mtf_huffman_encode(chunk);
      CompressedChunk out;
      // Everything travels in-band, so the honest wire size is also the
      // paper-accounting size.
      out.stats = CodecStats{label_, chunk.size(),
                             static_cast<std::uint64_t>(encoded.payload.size()) * 8};
      out.payload = std::move(encoded.payload);
      return out;
    });
  }

  Result<bits::TritVector> decompress_chunk(const std::vector<std::uint8_t>& payload,
                                            std::uint64_t trit_count) const override {
    return bwt_mtf_huffman_decode(payload, trit_count);
  }

 private:
  std::string label_;
};

}  // namespace

// ------------------------------------------------------- whole-buffer path

Result<CodecStats> Codec::round_trip(const bits::TritVector& input) const {
  obs::TraceSpan span("codec.round_trip");
  if (obs::TraceRecorder::global().enabled()) span.arg("codec", name());
  Result<CompressedChunk> out = compress_chunk(input);
  if (!out.ok()) return out.error();
  Result<bits::TritVector> back = decompress_chunk(out.value().payload, input.size());
  if (!back.ok()) return back.error();
  const bits::TritVector& decoded = back.value();
  if (decoded.size() < input.size()) {
    return Error{ErrorKind::StreamTooShort,
                 name() + ": expansion holds " + std::to_string(decoded.size()) +
                     " of " + std::to_string(input.size()) + " bits"};
  }
  if (!decoded.fully_specified()) {
    return Error{ErrorKind::ConfigMismatch,
                 name() + ": expansion still contains X bits"};
  }
  if (!input.covered_by(decoded)) {
    return Error{ErrorKind::ConfigMismatch,
                 name() + ": expansion violates a care bit of the input"};
  }
  return out.value().stats;
}

// ---------------------------------------------------------------- factories

std::unique_ptr<Codec> make_lzw_codec(const lzw::LzwConfig& config,
                                      lzw::Tiebreak tiebreak, std::string label) {
  return std::make_unique<LzwCodec>(config, tiebreak, std::move(label));
}

std::unique_ptr<Codec> make_lz77_codec(const Lz77Config& config, std::string label) {
  return std::make_unique<Lz77Codec>(config, std::move(label));
}

std::unique_ptr<Codec> make_alternating_rle_codec(const RleConfig& config,
                                                  std::string label) {
  return std::make_unique<AlternatingRleCodec>(config, std::move(label));
}

std::unique_ptr<Codec> make_best_rle_codec(std::string label) {
  return std::make_unique<BestRleCodec>(std::move(label));
}

std::unique_ptr<Codec> make_huffman_codec(const HuffmanConfig& config,
                                          std::string label) {
  return std::make_unique<HuffmanCodec>(config, std::move(label));
}

std::unique_ptr<Codec> make_lfsr_reseed_codec(std::uint32_t width,
                                              const LfsrReseedConfig& config,
                                              std::string label) {
  return std::make_unique<LfsrReseedCodec>(width, config, std::move(label));
}

std::unique_ptr<Codec> make_bwt_codec(std::string label) {
  return std::make_unique<BwtCodec>(std::move(label));
}

std::vector<std::unique_ptr<Codec>> default_registry(std::uint32_t pattern_width) {
  std::vector<std::unique_ptr<Codec>> registry;
  registry.push_back(make_lzw_codec(lzw::LzwConfig{}));
  registry.push_back(make_lz77_codec());
  registry.push_back(make_best_rle_codec());
  registry.push_back(make_huffman_codec(HuffmanConfig{8, 32}));
  registry.push_back(make_bwt_codec());
  if (pattern_width > 0) registry.push_back(make_lfsr_reseed_codec(pattern_width));
  return registry;
}

const Codec* codec_for_id(std::uint8_t id) {
  // Decode-side instances live for the process: payloads are self-contained,
  // so wire-default parameters expand any chunk. Deliberately leaked — the
  // registry must outlive every static destructor that might still decode.
  static const std::vector<std::unique_ptr<Codec>>* instances = [] {
    auto* v = new std::vector<std::unique_ptr<Codec>>();
    v->push_back(make_lzw_codec(lzw::LzwConfig{}));
    v->push_back(make_lz77_codec());
    v->push_back(make_best_rle_codec());
    v->push_back(make_huffman_codec(HuffmanConfig{8, 32}));
    v->push_back(make_lfsr_reseed_codec(0));  // decode-only: width is in-band
    v->push_back(make_bwt_codec());
    return v;
  }();
  for (const auto& codec : *instances) {
    if (static_cast<std::uint8_t>(codec->id()) == id) return codec.get();
  }
  return nullptr;
}

const Codec* codec_for_name(const std::string& token) {
  Result<CodecId> id = parse_codec_id(token);
  if (!id.ok()) return nullptr;
  return codec_for_id(static_cast<std::uint8_t>(id.value()));
}

}  // namespace tdc::codec
