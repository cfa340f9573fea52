#ifndef TDC_LZW_VERIFY_H
#define TDC_LZW_VERIFY_H

#include <string>

#include "bits/tritvector.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"

namespace tdc::lzw {

/// Outcome of a round-trip verification.
struct VerifyReport {
  bool ok = false;
  std::string error;  // empty when ok
};

/// Checks the central correctness invariant of the scheme: decompressing the
/// encoder's packed stream yields a fully specified stream that is
/// *compatible* with the ternary input — every care bit is reproduced
/// exactly, every X was bound to some concrete 0/1.
VerifyReport verify_roundtrip(const bits::TritVector& input,
                              const EncodeResult& encoded);

/// Convenience: encode + verify in one call.
VerifyReport encode_and_verify(const LzwConfig& config,
                               const bits::TritVector& input,
                               XAssignMode mode = XAssignMode::Dynamic,
                               Tiebreak tiebreak = Tiebreak::First);

}  // namespace tdc::lzw

#endif  // TDC_LZW_VERIFY_H
