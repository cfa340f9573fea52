#include "engine/manifest.h"

#include <charconv>
#include <fstream>
#include <set>
#include <sstream>

#include "codec/select.h"

namespace tdc::engine {

namespace {

Error manifest_error(std::size_t line_no, const std::string& message) {
  Error e;
  e.kind = ErrorKind::ConfigMismatch;
  e.message = "manifest line " + std::to_string(line_no) + ": " + message;
  return e;
}

/// Joins a possibly relative path onto a base directory.
std::string resolve(const std::string& base_dir, const std::string& path) {
  if (base_dir.empty() || path.empty() || path.front() == '/') return path;
  return base_dir + "/" + path;
}

/// Reads a manifest number: decimal digits only (no sign, space or base
/// prefix), and within the range of the field it lands in.
template <typename T>
bool parse_number(const std::string& raw, T* out) {
  const char* end = raw.data() + raw.size();
  T value = 0;
  const auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace

const char* tiebreak_name(lzw::Tiebreak tiebreak) {
  switch (tiebreak) {
    case lzw::Tiebreak::First: return "first";
    case lzw::Tiebreak::LowestChar: return "lowestchar";
    case lzw::Tiebreak::MostRecent: return "mostrecent";
    case lzw::Tiebreak::MostChildren: return "mostchildren";
    case lzw::Tiebreak::Lookahead: return "lookahead";
  }
  return "?";
}

const char* xassign_name(lzw::XAssignMode mode) {
  switch (mode) {
    case lzw::XAssignMode::Dynamic: return "dynamic";
    case lzw::XAssignMode::ZeroFill: return "zero";
    case lzw::XAssignMode::OneFill: return "one";
    case lzw::XAssignMode::RepeatFill: return "repeat";
    case lzw::XAssignMode::RandomFill: return "random";
  }
  return "?";
}

Result<lzw::Tiebreak> parse_tiebreak(const std::string& name) {
  for (const auto t : {lzw::Tiebreak::First, lzw::Tiebreak::LowestChar,
                       lzw::Tiebreak::MostRecent, lzw::Tiebreak::MostChildren,
                       lzw::Tiebreak::Lookahead}) {
    if (name == tiebreak_name(t)) return t;
  }
  Error e;
  e.kind = ErrorKind::ConfigMismatch;
  e.message = "unknown tiebreak '" + name + "'";
  return e;
}

Result<lzw::XAssignMode> parse_xassign(const std::string& name) {
  for (const auto m : {lzw::XAssignMode::Dynamic, lzw::XAssignMode::ZeroFill,
                       lzw::XAssignMode::OneFill, lzw::XAssignMode::RepeatFill,
                       lzw::XAssignMode::RandomFill}) {
    if (name == xassign_name(m)) return m;
  }
  Error e;
  e.kind = ErrorKind::ConfigMismatch;
  e.message = "unknown xassign mode '" + name + "'";
  return e;
}

Result<Manifest> parse_manifest(std::istream& in, const std::string& base_dir) {
  Manifest manifest;
  std::set<std::string> names;
  std::string line;
  std::size_t line_no = 0;
  bool version_seen = false;

  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head) || head.front() == '#') continue;

    if (head == "version") {
      std::string v;
      if (!(tokens >> v) || v != "1") {
        return manifest_error(line_no, "unsupported manifest version");
      }
      version_seen = true;
      continue;
    }
    if (head != "job") {
      return manifest_error(line_no, "expected 'job', 'version' or a comment, got '" + head + "'");
    }
    (void)version_seen;  // optional header; accepted anywhere before/between jobs

    JobSpec spec;
    std::string token;
    while (tokens >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        if (token == "variable") {
          spec.config.variable_width = true;
          continue;
        }
        return manifest_error(line_no, "unknown token '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (value.empty()) return manifest_error(line_no, "empty value for '" + key + "'");

      const auto bad_value = [&] {
        return manifest_error(line_no, "bad " + key + " '" + value + "'");
      };
      if (key == "name") {
        spec.name = value;
      } else if (key == "input") {
        spec.input_path = resolve(base_dir, value);
      } else if (key == "gen") {
        spec.gen_circuit = value;
      } else if (key == "out") {
        spec.output_path = value;
      } else if (key == "dict") {
        if (!parse_number(value, &spec.config.dict_size)) return bad_value();
      } else if (key == "char") {
        if (!parse_number(value, &spec.config.char_bits)) return bad_value();
      } else if (key == "entry") {
        if (!parse_number(value, &spec.config.entry_bits)) return bad_value();
      } else if (key == "tiebreak") {
        Result<lzw::Tiebreak> t = parse_tiebreak(value);
        if (!t.ok()) return manifest_error(line_no, t.error().message);
        spec.tiebreak = t.value();
      } else if (key == "xassign") {
        Result<lzw::XAssignMode> m = parse_xassign(value);
        if (!m.ok()) return manifest_error(line_no, m.error().message);
        spec.xassign = m.value();
      } else if (key == "seed") {
        if (!parse_number(value, &spec.rng_seed)) return bad_value();
      } else if (key == "container") {
        std::uint32_t& version = spec.container.version;
        if (!parse_number(value, &version) || (version != 1 && version != 2)) {
          return manifest_error(line_no, "container must be 1 or 2");
        }
      } else if (key == "chunk") {
        if (!parse_number(value, &spec.container.chunk_bytes)) return bad_value();
      } else if (key == "codec") {
        Result<codec::SelectOptions> mode = codec::parse_codec_mode(value);
        if (!mode.ok()) return manifest_error(line_no, mode.error().message);
        spec.codec = value;
      } else if (key == "chunk_trits") {
        if (!parse_number(value, &spec.chunk_trits) || spec.chunk_trits == 0 ||
            spec.chunk_trits > codec::kMaxChunkTrits) {
          return manifest_error(line_no,
                                "chunk_trits must be in [1, 2^30], got '" + value + "'");
        }
      } else {
        return manifest_error(line_no, "unknown key '" + key + "'");
      }
    }

    // --- per-job validation: the engine only sees runnable specs.
    const int sources = (!spec.input_path.empty() ? 1 : 0) +
                        (!spec.gen_circuit.empty() ? 1 : 0) +
                        (spec.inline_tests ? 1 : 0);
    if (sources != 1) {
      return manifest_error(line_no, "job needs exactly one of input=/gen=");
    }
    if (const std::string why = spec.config.check(); !why.empty()) {
      return manifest_error(line_no, why);
    }
    if (spec.container.chunk_bytes != 0 && spec.container.chunk_bytes < 64) {
      return manifest_error(line_no, "chunk must be 0 or >= 64");
    }
    if (spec.codec.empty()) {
      if (spec.chunk_trits != 0) {
        return manifest_error(line_no, "chunk_trits needs codec=");
      }
    } else {
      // codec= routes through per-chunk selection and the v3 container; the
      // selection path assigns don't-cares inside each backend, so the
      // whole-buffer xassign modes and the v1/v2 container knobs don't apply.
      if (spec.xassign != lzw::XAssignMode::Dynamic) {
        return manifest_error(line_no, "codec= jobs require xassign=dynamic");
      }
      const lzw::ContainerOptions defaults;
      if (spec.container.version != defaults.version ||
          spec.container.chunk_bytes != defaults.chunk_bytes) {
        return manifest_error(line_no,
                              "codec= jobs write a v3 container; drop container=/chunk=");
      }
    }
    if (spec.name.empty()) {
      spec.name = "job" + std::to_string(manifest.jobs.size());
    }
    if (!names.insert(spec.name).second) {
      return manifest_error(line_no, "duplicate job name '" + spec.name + "'");
    }
    manifest.jobs.push_back(std::move(spec));
  }
  return manifest;
}

Result<Manifest> load_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Error e;
    e.kind = ErrorKind::IoError;
    e.message = "cannot open manifest " + path;
    return e;
  }
  const std::size_t slash = path.rfind('/');
  const std::string base_dir = slash == std::string::npos ? "" : path.substr(0, slash);
  return parse_manifest(in, base_dir);
}

}  // namespace tdc::engine
