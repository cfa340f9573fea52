// Shared definition of the golden container corpus: the deterministic input
// stream, the (tiebreak x code width) matrix of LZW images, and the one
// multi-codec image, which both the generator (golden_gen.cpp) and the
// regression test (container_test.cpp) build. Changing anything here
// intentionally invalidates tests/data/ — regenerate with golden_gen and
// commit the new files alongside the format change.
#ifndef TDC_TESTS_CONTAINER_GOLDEN_H
#define TDC_TESTS_CONTAINER_GOLDEN_H

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bits/rng.h"
#include "bits/tritvector.h"
#include "codec/codec.h"
#include "lzw/encoder.h"
#include "lzw/stream_io.h"

namespace tdc::golden {

/// The corpus input: a platform-stable pseudo-random ternary stream with the
/// ATPG shape (mostly X, clustered care bits).
inline bits::TritVector input() {
  bits::Rng rng(0x60'1d'e4u);
  bits::TritVector v(900);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!rng.chance(0.7)) v.set(i, rng.bit() ? bits::Trit::One : bits::Trit::Zero);
  }
  return v;
}

/// Small-but-real configurator state: 4-bit characters, 64-entry dictionary.
inline lzw::LzwConfig config(bool variable_width) {
  lzw::LzwConfig c{.dict_size = 64, .char_bits = 4, .entry_bits = 15};
  c.variable_width = variable_width;
  return c;
}

/// 64-byte chunks so even this small corpus exercises multi-chunk framing.
inline lzw::ContainerOptions v2_options() {
  return lzw::ContainerOptions{.version = 2, .chunk_bytes = 64};
}

struct Case {
  std::string name;  ///< file stem, e.g. "first_fixed"
  lzw::Tiebreak tiebreak;
  bool variable_width;
};

/// Every dictionary-match tiebreak crossed with both code-width modes.
inline std::vector<Case> cases() {
  const std::vector<std::pair<std::string, lzw::Tiebreak>> tiebreaks = {
      {"first", lzw::Tiebreak::First},
      {"lowestchar", lzw::Tiebreak::LowestChar},
      {"mostrecent", lzw::Tiebreak::MostRecent},
      {"mostchildren", lzw::Tiebreak::MostChildren},
      {"lookahead", lzw::Tiebreak::Lookahead},
  };
  std::vector<Case> out;
  for (const auto& [name, tb] : tiebreaks) {
    out.push_back({name + "_fixed", tb, false});
    out.push_back({name + "_var", tb, true});
  }
  return out;
}

inline lzw::EncodeResult encode(const Case& c) {
  return lzw::Encoder(config(c.variable_width), c.tiebreak).encode(input());
}

/// Golden file name for a case and container version.
inline std::string file_name(const Case& c, std::uint32_t version) {
  return "golden_" + c.name + ".v" + std::to_string(version) + ".tdclzw";
}

/// The version-3 golden: input() cut into kV3ChunkTrits-trit chunks, one
/// per codec wire id, each compressed through Codec::compress_chunk. It pins
/// every per-codec payload layout, which no round trip can: a change made on
/// both the encode and the decode side still round-trips.
inline constexpr std::uint32_t kV3ChunkTrits = 150;

/// One backend per wire id, in id order (lzw = 1 ... bwt = 6).
inline std::vector<std::unique_ptr<codec::Codec>> v3_codecs() {
  std::vector<std::unique_ptr<codec::Codec>> out;
  out.push_back(codec::make_lzw_codec(config(false)));
  out.push_back(codec::make_lz77_codec());
  out.push_back(codec::make_best_rle_codec());
  out.push_back(codec::make_huffman_codec(codec::HuffmanConfig{8, 32}));
  out.push_back(codec::make_lfsr_reseed_codec(50));
  out.push_back(codec::make_bwt_codec());
  return out;
}

inline std::vector<lzw::ChunkRecord> v3_records() {
  const bits::TritVector source = input();
  std::vector<lzw::ChunkRecord> records;
  std::size_t pos = 0;
  for (const auto& codec : v3_codecs()) {
    const bits::TritVector chunk = source.slice(pos, kV3ChunkTrits);
    pos += kV3ChunkTrits;
    lzw::ChunkRecord record;
    record.codec_id = static_cast<std::uint8_t>(codec->id());
    record.original_trits = chunk.size();
    record.payload = codec->compress_chunk(chunk).value_or_throw().payload;
    records.push_back(std::move(record));
  }
  return records;
}

inline void write_v3(std::ostream& out) {
  lzw::write_image_v3(out, config(false), input().size(), kV3ChunkTrits,
                      v3_records());
}

inline std::string v3_file_name() { return "golden_codecs.v3.tdclzw"; }

}  // namespace tdc::golden

#endif  // TDC_TESTS_CONTAINER_GOLDEN_H
