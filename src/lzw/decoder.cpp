#include "lzw/decoder.h"

#include <utility>

#include "lzw/decode_core.h"
#include "obs/trace.h"

namespace tdc::lzw {

namespace {

/// Runs the decode core with the decoder's telemetry as its observer.
template <class Source>
Result<DecodeResult> decode_traced(const LzwConfig& config, Source& source,
                                   std::size_t code_count, std::uint64_t original_bits) {
  obs::TraceSpan span("lzw.decode");
  DecoderTelemetry tel;
  Result<DecodeResult> result =
      decode_codes(config, source, code_count, original_bits, [&tel](const CodeStep& step) {
        ++tel.codes_consumed;
        if (step.kind == CodeKind::KwKwK) ++tel.kwkwk_codes;
        if (step.added) ++tel.entries_added;
        tel.expansion_chars.record(step.chars);
      });
  if (!result.ok()) return result;
  result.value().telemetry = std::move(tel);
  span.arg("codes", result.value().telemetry.codes_consumed);
  span.arg("output_bits", static_cast<std::uint64_t>(result.value().bits.size()));
  return result;
}

}  // namespace

Result<DecodeResult> Decoder::try_decode(const std::vector<std::uint32_t>& codes,
                                         std::uint64_t original_bits) const {
  ListCodes source{.codes = codes};
  return decode_traced(config_, source, codes.size(), original_bits);
}

Result<DecodeResult> Decoder::try_decode_stream(bits::BitReader& reader,
                                                std::size_t code_count,
                                                std::uint64_t original_bits) const {
  StreamCodes source{.reader = reader};
  return decode_traced(config_, source, code_count, original_bits);
}

}  // namespace tdc::lzw
