#ifndef TDC_EXP_ARGS_H
#define TDC_EXP_ARGS_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace tdc::exp {

/// `raw` as a decimal number no greater than `max`, or nullopt: digits
/// only (no sign, space or base prefix), as the manifest reads numbers.
/// Args::u32 and Args::jobs parse with it, and so does a numeric
/// positional argument; std::stoul would take a sign and wrap past
/// 2^32 - 1.
std::optional<std::uint32_t> parse_u32(
    const std::string& raw, std::uint32_t max = std::numeric_limits<std::uint32_t>::max());

/// Shared flag parsing for the command-line front ends: an argv slice is
/// split into `--flag` / `--flag value` / `--flag=value` options and
/// positional arguments. Flags are consumed by the accessors below; whatever
/// remains with a `--` prefix is an unknown flag the command should reject.
///
///   exp::Args args(argc, argv);
///   const bool v1 = args.flag("--v1");
///   const std::uint32_t dict = args.u32("--dict", 1024);
///   if (!args.unknown().empty()) return usage();
///   const std::vector<std::string> files = args.positional();
class Args {
 public:
  Args(int argc, char** argv);

  /// Consumes a boolean flag; true if it was present.
  bool flag(const std::string& name);

  /// Consumes `--name value` or `--name=value`; nullopt if absent. A flag
  /// present without a value reports itself via unknown().
  std::optional<std::string> value(const std::string& name);

  /// value() parsed as an unsigned decimal integer no greater than `max`,
  /// with a default. A present value that is not all digits (a sign
  /// included) or exceeds `max` throws std::invalid_argument naming the
  /// flag; nothing wraps.
  std::uint32_t u32(const std::string& name, std::uint32_t fallback,
                    std::uint32_t max = std::numeric_limits<std::uint32_t>::max());

  /// Worker count for parallel subcommands, mirroring the bench sweeps'
  /// resolution order: consumes `--jobs N` / `--jobs=N` / `-j N` / `-jN`,
  /// then falls back to $TDC_JOBS, then hardware concurrency
  /// (ThreadPool::default_jobs). Always at least 1; a given value is
  /// parsed like u32(), so a sign or a value past 2^32 - 1 is refused.
  unsigned jobs();

  /// Unconsumed non-flag tokens, in order. Call after consuming flags —
  /// until then a `--flag value` value still counts as positional.
  std::vector<std::string> positional() const;

  /// First unconsumed `--flag` token (empty if none) — reject it in usage().
  std::string unknown() const;

 private:
  std::vector<std::string> items_;  ///< argv in order
  std::vector<bool> used_;          ///< consumed by a flag accessor
};

}  // namespace tdc::exp

#endif  // TDC_EXP_ARGS_H
