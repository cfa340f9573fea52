#include "service/framing.h"

#include <array>
#include <charconv>
#include <cstring>

#include "service/socket.h"

namespace tdc::service {

namespace {

constexpr const char* kMagic = "tdcd/1";

/// An error frame's position params, one per Error offset field.
constexpr std::pair<const char*, std::int64_t Error::*> kErrorPositions[] = {
    {"chunk", &Error::chunk_index},
    {"byte", &Error::byte_offset},
    {"code", &Error::code_index},
    {"bit", &Error::bit_offset},
};

Error protocol_error(std::string message) {
  Error e;
  e.kind = ErrorKind::ProtocolError;
  e.message = std::move(message);
  return e;
}

bool valid_token(const std::string& token) {
  if (token.empty()) return false;
  for (const char c : token) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '\0') return false;
  }
  return true;
}

/// Splits a header line (magic already not included) on single spaces.
std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    if (space == std::string::npos) {
      tokens.push_back(line.substr(start));
      break;
    }
    tokens.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return tokens;
}

void put_u64_le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64_le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

std::string Frame::param(const std::string& key, const std::string& fallback) const {
  const std::string* found = nullptr;
  for (const auto& [k, v] : params) {
    if (k == key) found = &v;
  }
  return found ? *found : fallback;
}

bool Frame::has_param(const std::string& key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return true;
  }
  return false;
}

Result<std::string> encode_frame_header(const Frame& frame) {
  if (!valid_token(frame.id) || !valid_token(frame.op)) {
    return protocol_error("frame id and op must be non-empty space-free tokens");
  }
  std::string out;
  out += kMagic;
  out += ' ';
  out += frame.id;
  out += ' ';
  out += frame.op;
  for (const auto& [k, v] : frame.params) {
    if (!valid_token(k) || v.find_first_of(" \n\r") != std::string::npos ||
        k.find('=') != std::string::npos) {
      return protocol_error("frame param '" + k + "' is not a token: bulk data belongs in the payload");
    }
    out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  out += '\n';
  put_u64_le(out, frame.payload.size());
  return out;
}

Status write_frame(int fd, const Frame& frame, int timeout_ms) {
  Result<std::string> header = encode_frame_header(frame);
  if (!header.ok()) return header.error();
  return write_all(fd, header.value(), frame.payload, timeout_ms);
}

Status FrameReader::fill(std::size_t n) {
  while (buffer_.size() < n) {
    std::array<char, 4096> chunk;
    Result<std::size_t> got = read_some(fd_, chunk.data(), chunk.size(), timeout_ms_);
    if (!got.ok()) return got.error();
    if (got.value() == 0) {
      Error e;
      e.kind = ErrorKind::IoError;
      e.message = "connection closed mid-frame";
      return e;
    }
    buffer_.append(chunk.data(), got.value());
  }
  return {};
}

Result<bool> FrameReader::read(Frame& out) {
  // Header: accumulate until '\n', bounded by max_header_bytes. A clean EOF
  // with an empty buffer is the peer finishing its session, not an error.
  std::size_t newline;
  while ((newline = buffer_.find('\n')) == std::string::npos) {
    if (buffer_.size() >= limits_.max_header_bytes) {
      return protocol_error("header exceeds " +
                            std::to_string(limits_.max_header_bytes) + " bytes");
    }
    std::array<char, 4096> chunk;
    Result<std::size_t> got = read_some(fd_, chunk.data(), chunk.size(), timeout_ms_);
    if (!got.ok()) return got.error();
    if (got.value() == 0) {
      if (buffer_.empty()) return false;
      Error e;
      e.kind = ErrorKind::IoError;
      e.message = "connection closed mid-header";
      return e;
    }
    buffer_.append(chunk.data(), got.value());
  }
  if (newline >= limits_.max_header_bytes) {
    return protocol_error("header exceeds " +
                          std::to_string(limits_.max_header_bytes) + " bytes");
  }

  const std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);

  std::vector<std::string> tokens = split_tokens(line);
  if (tokens.size() < 3 || tokens[0] != kMagic) {
    return protocol_error("bad frame header (want 'tdcd/1 <id> <op> ...'): " +
                          line.substr(0, 80));
  }
  out.id = tokens[1];
  out.op = tokens[2];
  out.params.clear();
  if (!valid_token(out.id) || !valid_token(out.op)) {
    return protocol_error("empty id or op in frame header");
  }
  for (std::size_t i = 3; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      return protocol_error("bad frame param (want key=value): " + tokens[i]);
    }
    out.params.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
  }

  // Length prefix — validate against the cap BEFORE any payload allocation,
  // so a declared 2^60-byte payload is a typed refusal, not an OOM attempt.
  if (Status s = fill(8); !s.ok()) return s.error();
  const std::uint64_t declared = get_u64_le(buffer_.data());
  buffer_.erase(0, 8);
  if (declared > limits_.max_payload_bytes) {
    return protocol_error("declared payload of " + std::to_string(declared) +
                          " bytes exceeds the " +
                          std::to_string(limits_.max_payload_bytes) + "-byte cap");
  }

  // The payload is sized once, reusing any capacity `out` kept from an
  // earlier frame. The bytes already buffered are copied in, and the rest
  // is read straight into place.
  const std::size_t size = static_cast<std::size_t>(declared);
  const std::size_t from_buffer = buffer_.size() < size ? buffer_.size() : size;
  out.payload.resize(size);
  buffer_.copy(out.payload.data(), from_buffer);
  buffer_.erase(0, from_buffer);
  if (from_buffer < size) {
    if (Status s = read_exact(fd_, out.payload.data() + from_buffer,
                              size - from_buffer, timeout_ms_);
        !s.ok()) {
      return s.error();
    }
  }
  return true;
}

Result<ErrorKind> parse_error_kind(const std::string& name) {
  static constexpr std::array<ErrorKind, 17> kKinds = {
      ErrorKind::IoError,          ErrorKind::TruncatedHeader,
      ErrorKind::BadMagic,         ErrorKind::UnsupportedVersion,
      ErrorKind::HeaderCrcMismatch, ErrorKind::TruncatedPayload,
      ErrorKind::ChunkCrcMismatch, ErrorKind::PayloadCrcMismatch,
      ErrorKind::ConfigMismatch,   ErrorKind::UnknownCodecId,
      ErrorKind::UndefinedCode,    ErrorKind::CodeStreamTruncated,
      ErrorKind::StreamTooShort,   ErrorKind::InvalidInput,
      ErrorKind::ContractViolation, ErrorKind::Busy,
      ErrorKind::ProtocolError,
  };
  for (const ErrorKind kind : kKinds) {
    if (name == to_string(kind)) return kind;
  }
  return protocol_error("unknown error kind: " + name);
}

Frame make_error_frame(const std::string& id, const Error& error) {
  Frame frame;
  frame.id = id;
  frame.op = "error";
  frame.add_param("kind", to_string(error.kind));
  for (const auto& [key, field] : kErrorPositions) {
    const std::int64_t value = error.*field;
    if (value >= 0) frame.add_param(key, std::to_string(value));
  }
  frame.payload = error.message;
  return frame;
}

Error decode_error_frame(const Frame& frame) {
  Result<ErrorKind> kind = parse_error_kind(frame.param("kind"));
  if (!kind.ok()) return kind.error();
  Error e;
  e.kind = kind.value();
  e.message = frame.payload;
  for (const auto& [key, field] : kErrorPositions) {
    if (!frame.has_param(key)) continue;
    const std::string text = frame.param(key);
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, e.*field);
    if (ec != std::errc() || ptr != end || e.*field < 0) {
      return protocol_error("bad error position " + std::string(key) + "=" + text);
    }
  }
  return e;
}

}  // namespace tdc::service
