#include "exp/args.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <stdexcept>

#include "exp/thread_pool.h"

namespace tdc::exp {

namespace {

bool is_flag(const std::string& token) { return token.rfind("--", 0) == 0; }

}  // namespace

std::optional<std::uint32_t> parse_u32(const std::string& raw, std::uint32_t max) {
  const char* end = raw.data() + raw.size();
  std::uint32_t value = 0;
  const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return std::nullopt;
  return value;
}

Args::Args(int argc, char** argv) {
  items_.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) items_.emplace_back(argv[i]);
  used_.assign(items_.size(), false);
}

bool Args::flag(const std::string& name) {
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (!used_[i] && items_[i] == name) {
      used_[i] = true;
      return true;
    }
  }
  return false;
}

std::optional<std::string> Args::value(const std::string& name) {
  const std::string prefix = name + "=";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (used_[i]) continue;
    if (items_[i].rfind(prefix, 0) == 0) {
      used_[i] = true;
      return items_[i].substr(prefix.size());
    }
    if (items_[i] == name) {
      // `--name value`: claim the next token, unless it looks like another
      // flag — then the value is missing and the bare flag stays unconsumed
      // so unknown() reports it.
      if (i + 1 >= items_.size() || used_[i + 1] || is_flag(items_[i + 1])) {
        return std::nullopt;
      }
      used_[i] = used_[i + 1] = true;
      return items_[i + 1];
    }
  }
  return std::nullopt;
}

std::uint32_t Args::u32(const std::string& name, std::uint32_t fallback,
                        std::uint32_t max) {
  const std::optional<std::string> raw = value(name);
  if (!raw) return fallback;
  if (const std::optional<std::uint32_t> parsed = parse_u32(*raw, max)) return *parsed;
  const std::string bound = max == std::numeric_limits<std::uint32_t>::max()
                                ? ""
                                : " up to " + std::to_string(max);
  throw std::invalid_argument(name + ": expected an unsigned integer" + bound + ", got '" +
                              *raw + "'");
}

unsigned Args::jobs() {
  // `--jobs N` / `--jobs=N` via the regular flag machinery.
  std::optional<std::string> raw = value("--jobs");
  // `-j N` / `-jN`: single-dash tokens are invisible to is_flag(), so they
  // would otherwise leak into positional(); claim them here.
  for (std::size_t i = 0; !raw && i < items_.size(); ++i) {
    if (used_[i]) continue;
    const std::string& tok = items_[i];
    if (tok == "-j") {
      if (i + 1 < items_.size() && !used_[i + 1]) {
        used_[i] = used_[i + 1] = true;
        raw = items_[i + 1];
      }
    } else if (tok.size() > 2 && tok.rfind("-j", 0) == 0 &&
               std::isdigit(static_cast<unsigned char>(tok[2]))) {
      used_[i] = true;
      raw = tok.substr(2);
    }
  }
  if (raw) {
    const std::optional<std::uint32_t> parsed = parse_u32(*raw);
    if (!parsed || *parsed == 0) {
      throw std::invalid_argument("--jobs: expected a positive integer, got '" + *raw + "'");
    }
    return *parsed;
  }
  return ThreadPool::default_jobs();
}

std::vector<std::string> Args::positional() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (!used_[i] && !is_flag(items_[i])) out.push_back(items_[i]);
  }
  return out;
}

std::string Args::unknown() const {
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (!used_[i] && is_flag(items_[i])) return items_[i];
  }
  return {};
}

}  // namespace tdc::exp
