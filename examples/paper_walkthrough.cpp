// Reproduces the paper's Figures 3 and 4: the step-by-step LZW compression
// and decompression tables for a 1-bit-character message, printed from the
// live encoder/decoder (not a hand simulation). Includes the Fig. 4f
// "code not yet in the dictionary" (KwKwK) special case.
//
//   build/examples/paper_walkthrough
#include <cstdio>
#include <string>
#include <vector>

#include "bits/tritvector.h"
#include "lzw/decoder.h"
#include "lzw/dictionary.h"
#include "lzw/encoder.h"

namespace {

using namespace tdc;

std::string code_name(std::uint32_t code) {
  return code == lzw::kNoCode ? "-" : std::to_string(code);
}

void walkthrough(const char* title, const std::string& message) {
  const lzw::LzwConfig config{.dict_size = 8, .char_bits = 1, .entry_bits = 8};
  const auto input = bits::TritVector::from_string(message);

  std::printf("%s\n  uncompressed input: %s\n\n", title, message.c_str());
  std::printf("  %-5s %-7s %-6s %-7s %-10s   (Fig. 3 format)\n", "step", "buffer",
              "input", "output", "new entry");

  lzw::Dictionary shadow(config);  // expands entries for pretty-printing
  std::vector<std::uint32_t> codes;  // the emitted codes, from the observer
  char step_label = 'a';
  const lzw::Encoder encoder(config);
  const auto encoded = encoder.encode(
      input, lzw::XAssignMode::Dynamic, 1, [&](const lzw::EncoderStep& step) {
        if (step.emitted != lzw::kNoCode) codes.push_back(step.emitted);
        std::string in = step.char_index < (input.size() + config.char_bits - 1) /
                                               config.char_bits
                             ? ((step.char_care & 1) == 0 ? "X"
                                : (step.char_value & 1) != 0 ? "1" : "0")
                             : "(end)";
        std::string entry = "-";
        if (step.new_entry != lzw::kNoCode) {
          const auto code =
              shadow.add(step.buffer_before, static_cast<std::uint32_t>(
                                                 step.char_value & step.char_care));
          std::string bits;
          for (const auto c : shadow.expand(code)) bits += c != 0 ? '1' : '0';
          entry = std::to_string(code) + "(" + bits + ")";
        }
        std::printf("  %-5c %-7s %-6s %-7s %-10s\n", step_label++,
                    code_name(step.buffer_before).c_str(), in.c_str(),
                    code_name(step.emitted).c_str(), entry.c_str());
      });

  std::printf("\n  compressed output:");
  for (const auto c : codes) std::printf(" %u", c);
  std::printf("   (%llu -> %llu bits)\n\n",
              static_cast<unsigned long long>(encoded.original_bits),
              static_cast<unsigned long long>(encoded.compressed_bits()));

  // ---- Figure 4: decompression rebuilds the dictionary from the codes.
  std::printf("  decompression (Fig. 4 format):\n");
  std::printf("  %-5s %-7s %-6s %-12s %-10s\n", "step", "buffer", "input", "output",
              "new entry");
  lzw::Dictionary dict(config);
  std::uint32_t prev = lzw::kNoCode;
  step_label = 'a';
  std::string recovered;
  for (const auto code : codes) {
    std::vector<std::uint32_t> entry;
    const bool kwkwk = !dict.defined(code);
    if (kwkwk) {
      entry = dict.expand(prev);
      entry.push_back(dict.first_char(prev));
    } else {
      entry = dict.expand(code);
    }
    std::string created = "-";
    if (prev != lzw::kNoCode) {
      const auto c = dict.add(prev, entry.front());
      if (c != lzw::kNoCode) {
        std::string bits;
        for (const auto ch : dict.expand(c)) bits += ch != 0 ? '1' : '0';
        created = std::to_string(c) + "(" + bits + ")";
      }
    }
    std::string out;
    for (const auto ch : entry) out += ch != 0 ? '1' : '0';
    recovered += out;
    std::printf("  %-5c %-7s %-6u %-12s %-10s%s\n", step_label++,
                code_name(prev).c_str(), code, out.c_str(), created.c_str(),
                kwkwk ? "   <- code not yet defined (KwKwK)" : "");
    prev = code;
  }
  recovered.resize(input.size());
  std::printf("\n  recovered: %s\n", recovered.c_str());

  // Cross-check against the reference decoder, which reads the packed
  // stream.
  bits::BitReader reader(encoded.stream);
  const auto decoded =
      lzw::Decoder(config).decode_stream(reader, encoded.code_count, encoded.original_bits);
  std::printf("  reference decoder agrees: %s\n",
              decoded.bits.to_string() == recovered ? "yes" : "NO");
  std::printf("  care bits preserved:      %s\n\n",
              input.covered_by(decoded.bits) ? "yes" : "NO");
}

}  // namespace

int main() {
  // A fully specified message first (the classic Fig. 3 walk) ...
  walkthrough("=== Figure 3/4 walkthrough (specified message) ===", "110001100011");
  // ... the KwKwK case of Fig. 4f ...
  walkthrough("=== KwKwK special case (paper Fig. 4f) ===", "111111");
  // ... and the paper's actual contribution: the same walk with don't-cares
  // bound dynamically to whatever keeps the dictionary matching.
  walkthrough("=== Dynamic don't-care assignment (paper Sec. 5) ===",
              "1X0X011XX0X1");
  return 0;
}
