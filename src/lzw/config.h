#ifndef TDC_LZW_CONFIG_H
#define TDC_LZW_CONFIG_H

#include <bit>
#include <cstdint>
#include <string>

#include "core/contracts.h"
#include "core/error.h"

namespace tdc::lzw {

/// Static configuration of the LZW codec, mirroring the paper's
/// "configurator block" (§3): everything here is agreed between the
/// compression tool and the on-chip decompressor before any data is sent.
///
/// Terminology follows the paper:
///   * `dict_size`  — N, total number of codes (literals + dictionary entries)
///   * `char_bits`  — C_C, width of one uncompressed character
///   * `entry_bits` — C_MDATA, width of the dictionary memory's data field,
///                    i.e. the maximum uncompressed expansion of any code
/// Derived:
///   * code_bits()  — C_E = ceil(log2 N), width of one compressed character
///   * literal_count() — 2^C_C; codes [0, 2^C_C) are implicit literals
///   * max_entry_chars() — floor(C_MDATA / C_C), entry cap in characters
struct LzwConfig {
  std::uint32_t dict_size = 1024;
  std::uint32_t char_bits = 7;
  std::uint32_t entry_bits = 63;

  /// false (the paper's hardware): every code is a fixed C_E bits. true:
  /// classic software LZW code growth — a code is transmitted in just
  /// enough bits to address the dictionary codes defined at that moment,
  /// growing toward C_E as the dictionary fills. Saves a few percent early
  /// in the stream at the cost of a variable-width input shifter
  /// (quantified by bench/ablation_codewidth).
  bool variable_width = false;

  /// C_E: number of bits per compressed code (the maximum, when
  /// variable_width is set).
  constexpr std::uint32_t code_bits() const {
    return dict_size <= 1 ? 1u : static_cast<std::uint32_t>(std::bit_width(dict_size - 1u));
  }

  /// Number of literal codes (one per possible uncompressed character).
  constexpr std::uint32_t literal_count() const { return 1u << char_bits; }

  /// First code index available for dictionary entries.
  constexpr std::uint32_t first_code() const { return literal_count(); }

  /// Maximum characters a single dictionary entry may expand to
  /// (bounded by the embedded-memory word width C_MDATA).
  constexpr std::uint32_t max_entry_chars() const { return entry_bits / char_bits; }

  /// True when the configuration leaves no room for dictionary codes —
  /// the degenerate "code exhaustion" regime of paper Table 4 (large C_C).
  constexpr bool degenerate() const {
    return dict_size <= literal_count() || max_entry_chars() < 2;
  }

  /// Largest N accepted anywhere. The encoder and hw::DecompressorRtl
  /// reserve N entries up front (the decode core sizes its state from the
  /// stream), so this bounds what an untrusted header or payload can make
  /// them allocate; the paper's configurations stay far below it.
  static constexpr std::uint32_t kMaxDictSize = 1u << 20;

  /// Widest C_MDATA a stored image may declare (Table 5's widest word):
  /// every container and LZW chunk-payload reader and writer enforces it
  /// through check_stored(). In-process Encoder and Decoder runs stay
  /// unbounded, since bench/table6_perf_vs_entry encodes with 2^20.
  static constexpr std::uint32_t kMaxStoredEntryBits = 511;

  /// Why the configuration is not realizable, or the empty string when it
  /// is. The non-throwing core of validate(), used by the Result-returning
  /// container reader to map bad headers to a typed ConfigMismatch.
  std::string check() const {
    if (char_bits == 0 || char_bits > 16) {
      return "LzwConfig: char_bits must be in [1,16]";
    }
    if (dict_size < literal_count()) {
      return "LzwConfig: dict_size must cover all 2^char_bits literals";
    }
    if (dict_size > kMaxDictSize) {
      return "LzwConfig: dict_size " + std::to_string(dict_size) +
             " exceeds the 2^20 cap";
    }
    if (entry_bits < char_bits) {
      return "LzwConfig: entry_bits must hold at least one character";
    }
    return {};
  }

  /// check(), plus the C_MDATA cap of a stored image.
  std::string check_stored() const {
    if (std::string why = check(); !why.empty()) return why;
    if (entry_bits > kMaxStoredEntryBits) {
      return "LzwConfig: entry_bits " + std::to_string(entry_bits) +
             " exceeds the " + std::to_string(kMaxStoredEntryBits) +
             "-bit cap of a stored image";
    }
    return {};
  }

  /// Most scan bits `code_count` codes can decode to: code i expands to at
  /// most min(max_entry_chars(), i + 1) characters, which a KwKwK chain
  /// reaches. Fits 64 bits when check_stored() passes and code_count <= 2^40.
  constexpr std::uint64_t max_decoded_bits(std::uint64_t code_count) const {
    const std::uint64_t cap = max_entry_chars();
    const std::uint64_t ramp = code_count < cap ? code_count : cap;
    return (ramp * (ramp + 1) / 2 + (code_count - ramp) * cap) * char_bits;
  }

  /// Raises Error{ConfigMismatch} (a std::invalid_argument) if the
  /// configuration is not realizable.
  void validate() const {
    if (const std::string why = check(); !why.empty()) {
      Error{ErrorKind::ConfigMismatch, why}.raise();
    }
  }

  std::string describe() const {
    return "N=" + std::to_string(dict_size) + " C_C=" + std::to_string(char_bits) +
           " C_MDATA=" + std::to_string(entry_bits) +
           " C_E=" + std::to_string(code_bits());
  }
};

namespace static_checks {

/// Compile-time proof of the paper's bit-width relations for every
/// configuration the tables evaluate (contracts::LzwContract static_asserts
/// C_E minimality, the C_MDATA entry bound and the Fig. 6 word geometry on
/// instantiation). A constant-derivation bug now fails this header's
/// compile instead of a golden-file test.
using contracts::LzwContract;

// The paper's default geometry (Tables 1-3, 6): N=1024, C_C=7, C_MDATA=63.
static_assert(LzwContract<1024, 7, 63>::checked);
static_assert(LzwContract<1024, 7, 63>::code_bits == 10);
static_assert(LzwContract<1024, 7, 63>::max_entry_chars == 9);

// Table 4 character-size sweep: C_C in {4..10} at N=1024.
static_assert(LzwContract<1024, 4, 63>::checked);
static_assert(LzwContract<1024, 5, 63>::checked);
static_assert(LzwContract<1024, 6, 63>::checked);
static_assert(LzwContract<1024, 8, 63>::checked);
static_assert(LzwContract<1024, 9, 63>::checked);
static_assert(LzwContract<1024, 10, 63>::checked);

// Table 5 entry-size sweep: C_MDATA in {15..127} at C_C=7.
static_assert(LzwContract<1024, 7, 15>::checked);
static_assert(LzwContract<1024, 7, 31>::checked);
static_assert(LzwContract<1024, 7, 127>::checked);
static_assert(LzwContract<1024, 7, 127>::max_entry_chars == 18);

// Dictionary-size sweep: N in {256..8192} at C_C=7 — C_E tracks ceil(log2 N).
static_assert(LzwContract<256, 7, 63>::code_bits == 8);
static_assert(LzwContract<512, 7, 63>::code_bits == 9);
static_assert(LzwContract<2048, 7, 63>::code_bits == 11);
static_assert(LzwContract<4096, 7, 63>::code_bits == 12);
static_assert(LzwContract<8192, 7, 63>::code_bits == 13);

}  // namespace static_checks

}  // namespace tdc::lzw

#endif  // TDC_LZW_CONFIG_H
