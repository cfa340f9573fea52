#include "lzw/decoder.h"

#include <utility>

#include "lzw/decode_core.h"
#include "obs/trace.h"

namespace tdc::lzw {

Result<DecodeResult> Decoder::try_decode_stream(bits::BitReader& reader,
                                                std::size_t code_count,
                                                std::uint64_t original_bits) const {
  obs::TraceSpan span("lzw.decode");
  DecoderTelemetry tel;
  SampleCounts chars(tel.expansion_chars);
  Result<DecodeResult> result = decode_codes(
      config_, reader, code_count, original_bits, [&tel, &chars](const CodeStep& step) {
        ++tel.codes_consumed;
        if (step.kind == CodeKind::KwKwK) ++tel.kwkwk_codes;
        if (step.added) ++tel.entries_added;
        chars.record(step.chars);
      });
  if (!result.ok()) return result;
  chars.fold();
  result.value().telemetry = std::move(tel);
  span.arg("codes", result.value().telemetry.codes_consumed);
  span.arg("output_bits", static_cast<std::uint64_t>(result.value().bits.size()));
  return result;
}

}  // namespace tdc::lzw
