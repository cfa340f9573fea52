#include "codec/rle.h"

#include <bit>
#include <cassert>
#include <utility>

#include "core/contracts.h"
#include "core/error.h"

namespace tdc::codec {

namespace {

/// Truncated-binary code for a remainder in [0, m). For power-of-two m this
/// degenerates to plain log2(m)-bit binary (the Rice case).
void write_remainder(bits::BitWriter& w, std::uint64_t r, std::uint64_t m) {
  const auto b = static_cast<unsigned>(std::bit_width(m - 1));
  const std::uint64_t cutoff = (1ULL << b) - m;  // first `cutoff` values use b-1 bits
  if (r < cutoff) {
    w.write(r, b - 1);
  } else {
    w.write(r + cutoff, b);
  }
}

std::uint64_t read_remainder(bits::BitReader& r, std::uint64_t m) {
  const auto b = static_cast<unsigned>(std::bit_width(m - 1));
  const std::uint64_t cutoff = (1ULL << b) - m;
  std::uint64_t v = b > 1 ? r.read(b - 1) : 0;
  if (v >= cutoff) {
    v = (v << 1) | (r.read_bit() ? 1 : 0);
    v -= cutoff;
  }
  return v;
}

/// FDR group of a run length: group k >= 1 covers lengths
/// [2^k - 2, 2^(k+1) - 3], so k = floor(log2(len + 2)).
unsigned fdr_group(std::uint64_t len) {
  return static_cast<unsigned>(std::bit_width(len + 2)) - 1;
}

/// Bits write_run() spends on run length `len`: Golomb, the unary quotient
/// and its terminator plus the truncated-binary remainder; FDR, a k-bit
/// prefix and a k-bit tail for group k.
std::uint64_t run_bits(std::uint64_t len, const RleConfig& config) {
  if (config.run_code == RunCode::Fdr) return 2 * std::uint64_t{fdr_group(len)};
  const std::uint64_t m = config.golomb_m;
  const auto b = static_cast<unsigned>(std::bit_width(m - 1));
  const std::uint64_t cutoff = (1ULL << b) - m;
  return len / m + 1 + (len % m < cutoff ? b - 1 : b);
}

/// The 0-runs of golomb_rle_encode: X bits 0-filled, each run ended by a 1,
/// and a trailing run without its 1 when the input ends in zeros.
std::vector<std::uint64_t> zero_runs(const bits::TritVector& input) {
  const bits::TritVector filled = input.filled(bits::Trit::Zero);
  std::vector<std::uint64_t> runs;
  std::uint64_t run = 0;
  for (std::size_t i = 0; i < filled.size(); ++i) {
    if (filled.get(i) == bits::Trit::Zero) {
      ++run;
    } else {
      runs.push_back(run);
      run = 0;
    }
  }
  if (run > 0) runs.push_back(run);  // trailing zeros with no terminating 1
  return runs;
}

/// The runs of alternating_rle_encode over the repeat-filled input: 0-runs
/// and 1-runs alternate, starting with a (possibly empty) 0-run.
std::vector<std::uint64_t> alternating_runs(const bits::TritVector& input) {
  const bits::TritVector filled = input.filled_repeat_last();
  std::vector<std::uint64_t> runs;
  bits::Trit expect = bits::Trit::Zero;
  std::size_t i = 0;
  while (i < filled.size()) {
    std::uint64_t run = 0;
    while (i < filled.size() && filled.get(i) == expect) {
      ++run;
      ++i;
    }
    runs.push_back(run);
    expect = expect == bits::Trit::Zero ? bits::Trit::One : bits::Trit::Zero;
  }
  return runs;
}

/// Codes `runs` under `config` into a fresh result.
RleResult write_runs(std::vector<std::uint64_t> runs, const RleConfig& config,
                     std::uint64_t original_bits, const char* name) {
  RleResult result;
  result.config = config;
  result.original_bits = original_bits;
  result.name = name;
  for (const std::uint64_t len : runs) write_run(result.stream, len, config);
  result.runs = std::move(runs);
  return result;
}

const char* golomb_name(const RleConfig& config) {
  return config.run_code == RunCode::Fdr ? "FDR" : "Golomb-RLE";
}

/// The tuning grid's cheapest configuration for `runs`: Golomb m = 4, 8,
/// ..., 128, then FDR, each costed from the run lengths alone, the first
/// strictly smaller total winning.
RleConfig cheapest_config(const std::vector<std::uint64_t>& runs) {
  RleConfig best;
  std::uint64_t best_bits = 0;
  bool have = false;
  const auto consider = [&](const RleConfig& config) {
    std::uint64_t total = 0;
    for (const std::uint64_t len : runs) total += run_bits(len, config);
    if (!have || total < best_bits) {
      best = config;
      best_bits = total;
      have = true;
    }
  };
  for (const std::uint32_t m : {4u, 8u, 16u, 32u, 64u, 128u}) {
    consider(RleConfig{RunCode::Golomb, m});
  }
  consider(RleConfig{RunCode::Fdr, 0});
  return best;
}

}  // namespace

void write_run(bits::BitWriter& w, std::uint64_t len, const RleConfig& config) {
  switch (config.run_code) {
    case RunCode::Golomb: {
      const std::uint64_t m = config.golomb_m;
      assert(m >= 2);
      std::uint64_t q = len / m;
      for (; q > 0; --q) w.write_bit(true);  // unary quotient: q ones
      w.write_bit(false);                    // terminator
      if (m > 1) write_remainder(w, len % m, m);
      break;
    }
    case RunCode::Fdr: {
      // Group k (k >= 1) covers lengths [2^k - 2, 2^(k+1) - 3]; the code is
      // a (k-1)-ones-then-zero prefix followed by a k-bit tail.
      const unsigned k = fdr_group(len);
      const std::uint64_t base = (1ULL << k) - 2;
      for (unsigned i = 1; i < k; ++i) w.write_bit(true);
      w.write_bit(false);
      w.write(len - base, k);
      break;
    }
  }
}

std::uint64_t read_run(bits::BitReader& r, const RleConfig& config) {
  switch (config.run_code) {
    case RunCode::Golomb: {
      const std::uint64_t m = config.golomb_m;
      std::uint64_t q = 0;
      while (r.read_bit()) ++q;
      const std::uint64_t rem = m > 1 ? read_remainder(r, m) : 0;
      return q * m + rem;
    }
    case RunCode::Fdr: {
      unsigned k = 1;
      while (r.read_bit()) {
        // Group 63 already reaches lengths near 2^64; a longer prefix is
        // corrupt input, and its 2^k base would overflow the shift.
        if (++k == 64) {
          Error{.kind = ErrorKind::InvalidInput,
                .message = "FDR run prefix of 63 ones: group 64 exceeds the "
                           "64-bit run length",
                .bit_offset = static_cast<std::int64_t>(r.position())}
              .raise();
        }
      }
      const std::uint64_t base = (1ULL << k) - 2;
      return base + r.read(k);
    }
  }
  return 0;
}

RleResult golomb_rle_encode(const bits::TritVector& input, const RleConfig& config) {
  return write_runs(zero_runs(input), config, input.size(), golomb_name(config));
}

bits::TritVector golomb_rle_decode(const bits::BitWriter& stream,
                                   std::uint64_t original_bits,
                                   const RleConfig& config) {
  bits::BitReader reader(stream);
  bits::TritVector out;
  while (out.size() < original_bits) {
    const std::uint64_t run = read_run(reader, config);
    for (std::uint64_t i = 0; i < run && out.size() < original_bits; ++i) {
      out.push_back(bits::Trit::Zero);
    }
    if (out.size() < original_bits) out.push_back(bits::Trit::One);
  }
  return out;
}

RleResult alternating_rle_encode(const bits::TritVector& input,
                                 const RleConfig& config) {
  return write_runs(alternating_runs(input), config, input.size(), "Alt-RLE");
}

bits::TritVector alternating_rle_decode(const bits::BitWriter& stream,
                                        std::uint64_t original_bits,
                                        const RleConfig& config) {
  bits::BitReader reader(stream);
  bits::TritVector out;
  bits::Trit expect = bits::Trit::Zero;
  while (out.size() < original_bits) {
    const std::uint64_t run = read_run(reader, config);
    for (std::uint64_t i = 0; i < run && out.size() < original_bits; ++i) {
      out.push_back(expect);
    }
    expect = expect == bits::Trit::Zero ? bits::Trit::One : bits::Trit::Zero;
  }
  return out;
}

RleResult golomb_tdiff_encode(const bits::TritVector& input, std::uint32_t width,
                              const RleConfig& config) {
  TDC_REQUIRE(width > 0 && input.size() % width == 0,
              "golomb_tdiff_encode: bad pattern width");
  // Fill each X from the same cell of the previous (filled) pattern: its
  // difference bit becomes 0 — the fill rule the scheme is built around.
  bits::TritVector filled(input.size(), bits::Trit::Zero);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const bits::Trit t = input.get(i);
    if (t != bits::Trit::X) {
      filled.set(i, t);
    } else if (i >= width) {
      filled.set(i, filled.get(i - width));
    }
  }
  bits::TritVector diff(input.size(), bits::Trit::Zero);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const bool cur = filled.get(i) == bits::Trit::One;
    const bool prev = i >= width && filled.get(i - width) == bits::Trit::One;
    diff.set(i, cur != prev ? bits::Trit::One : bits::Trit::Zero);
  }
  RleResult result = golomb_rle_encode(diff, config);
  result.name = "Golomb-Tdiff";
  return result;
}

bits::TritVector golomb_tdiff_decode(const bits::BitWriter& stream,
                                     std::uint64_t original_bits,
                                     std::uint32_t width, const RleConfig& config) {
  TDC_REQUIRE(width > 0 && original_bits % width == 0,
              "golomb_tdiff_decode: bad pattern width");
  const bits::TritVector diff = golomb_rle_decode(stream, original_bits, config);
  bits::TritVector out(original_bits, bits::Trit::Zero);
  for (std::size_t i = 0; i < original_bits; ++i) {
    const bool prev = i >= width && out.get(i - width) == bits::Trit::One;
    const bool d = diff.get(i) == bits::Trit::One;
    out.set(i, prev != d ? bits::Trit::One : bits::Trit::Zero);
  }
  return out;
}

RleResult best_alternating_rle(const bits::TritVector& input) {
  std::vector<std::uint64_t> runs = alternating_runs(input);
  const RleConfig config = cheapest_config(runs);
  return write_runs(std::move(runs), config, input.size(), "Alt-RLE");
}

RleResult best_golomb_rle(const bits::TritVector& input) {
  std::vector<std::uint64_t> runs = zero_runs(input);
  const RleConfig config = cheapest_config(runs);
  return write_runs(std::move(runs), config, input.size(), golomb_name(config));
}

}  // namespace tdc::codec
