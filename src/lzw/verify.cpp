#include "lzw/verify.h"

namespace tdc::lzw {

VerifyReport verify_roundtrip(const bits::TritVector& input,
                              const EncodeResult& encoded) {
  VerifyReport report;
  bits::BitReader reader(encoded.stream);
  Result<DecodeResult> decoded = Decoder(encoded.config)
                                     .try_decode_stream(reader, encoded.code_count,
                                                        encoded.original_bits);
  if (!decoded.ok()) {
    report.error = "decode failed: " + decoded.error().describe();
    return report;
  }
  const bits::TritVector& out = decoded.value().bits;
  if (out.size() != input.size()) {
    report.error = "decoded length mismatch";
    return report;
  }
  if (!input.covered_by(out)) {
    report.error = "decoded stream violates a care bit of the input";
    return report;
  }
  if (!out.fully_specified()) {
    report.error = "decoded stream contains X";
    return report;
  }
  report.ok = true;
  return report;
}

VerifyReport encode_and_verify(const LzwConfig& config,
                               const bits::TritVector& input, XAssignMode mode,
                               Tiebreak tiebreak) {
  const Encoder encoder(config, tiebreak);
  return verify_roundtrip(input, encoder.encode(input, mode));
}

}  // namespace tdc::lzw
