#ifndef TDC_CODEC_RLE_H
#define TDC_CODEC_RLE_H

#include <cstdint>
#include <vector>

#include "bits/bitstream.h"
#include "bits/tritvector.h"

namespace tdc::codec {

/// Run-length family used as the paper's "RLE" baseline — the Golomb and
/// run-length coders of Chandra & Chakrabarty (refs [10]/[11] of the paper).
///
/// All schemes here encode *run lengths*; don't-cares are assigned before
/// coding so as to lengthen runs (0-fill for the 0-run coders, repeat-fill
/// for the alternating coder), which is exactly the "assign the X bits to
/// form the longest string of 0s or 1s" strategy the paper's §1 describes.

/// How a run length is entropy-coded.
enum class RunCode {
  Golomb,  ///< Golomb code with divisor m (unary quotient + remainder)
  Fdr,     ///< frequency-directed run-length code (group prefix + tail)
};

struct RleConfig {
  RunCode run_code = RunCode::Golomb;
  std::uint32_t golomb_m = 16;  ///< Golomb divisor (ignored for FDR)
};

/// Result of a run-length compression run.
struct RleResult {
  RleConfig config;
  std::vector<std::uint64_t> runs;  ///< encoded run lengths, in order
  bits::BitWriter stream;
  std::uint64_t original_bits = 0;
  const char* name = "RLE";
};

/// Appends the code word for run length `len` to `w`.
void write_run(bits::BitWriter& w, std::uint64_t len, const RleConfig& config);

/// Reads one run-length code word.
std::uint64_t read_run(bits::BitReader& r, const RleConfig& config);

/// Golomb/FDR coding of 0-runs terminated by a 1 (Chandra & Chakrabarty,
/// "System-on-a-chip test-data compression ... based on Golomb codes").
/// X bits are 0-filled. A trailing run without a terminating 1 is emitted
/// as a plain run; the decoder truncates at `original_bits`.
RleResult golomb_rle_encode(const bits::TritVector& input, const RleConfig& config = {});

/// Inverse of golomb_rle_encode.
bits::TritVector golomb_rle_decode(const bits::BitWriter& stream,
                                   std::uint64_t original_bits,
                                   const RleConfig& config = {});

/// Alternating run-length coding (Chandra & Chakrabarty, DAC 2002): runs of
/// 0s and 1s alternate, starting with a (possibly empty) 0-run. X bits are
/// repeat-filled so each run is as long as possible.
RleResult alternating_rle_encode(const bits::TritVector& input,
                                 const RleConfig& config = {});

/// Inverse of alternating_rle_encode.
bits::TritVector alternating_rle_decode(const bits::BitWriter& stream,
                                        std::uint64_t original_bits,
                                        const RleConfig& config = {});

/// Tunes the run code per input — the per-circuit parameter tuning the
/// baseline papers apply — and returns the encoding with the smallest
/// stream. The runs are extracted once; each grid point (Golomb m = 4, 8,
/// ..., 128, then FDR) is costed from the run lengths alone, a tie goes to
/// the earlier point, and only the winner's stream is written.
RleResult best_alternating_rle(const bits::TritVector& input);
RleResult best_golomb_rle(const bits::TritVector& input);

/// Golomb coding of the *difference vector* T_diff (Chandra & Chakrabarty's
/// original scheme): don't-cares adopt the previous pattern's bit (which
/// zeroes their difference), each pattern is XORed with its predecessor,
/// and the 0-run-dominated result is Golomb coded. `width` is the pattern
/// length; input size must be a multiple of it.
RleResult golomb_tdiff_encode(const bits::TritVector& input, std::uint32_t width,
                              const RleConfig& config = {});

/// Inverse of golomb_tdiff_encode (undoes both the Golomb coding and the
/// differencing).
bits::TritVector golomb_tdiff_decode(const bits::BitWriter& stream,
                                     std::uint64_t original_bits,
                                     std::uint32_t width,
                                     const RleConfig& config = {});

}  // namespace tdc::codec

#endif  // TDC_CODEC_RLE_H
