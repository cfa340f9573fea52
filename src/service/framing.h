#ifndef TDC_SERVICE_FRAMING_H
#define TDC_SERVICE_FRAMING_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"

namespace tdc::service {

/// Wire format of one tdcd request or response frame:
///
///     tdcd/1 <id> <op> [key=value]*\n        (header line, ASCII tokens)
///     <payload length, 8-byte little-endian>
///     <payload bytes>
///
/// The header carries routing and knobs (request id, operation, codec/chunk
/// parameters); the payload carries bulk bytes — test-set text, TDCLZW2
/// container records, JSON — so the framing never re-encodes what the
/// container format already frames. Responses reuse the same shape with op
/// "ok" or "error"; error frames carry `kind=<ErrorKind>`, one
/// `chunk=`/`byte=`/`code=`/`bit=` param per position the Error has, and
/// the Error's message as the payload.
struct Frame {
  std::string id;  ///< request id, echoed verbatim in the response
  std::string op;  ///< operation ("compress", "ok", "error", ...)
  std::vector<std::pair<std::string, std::string>> params;
  std::string payload;

  /// Last value for `key`, or `fallback` — lets a client override a default
  /// by appending.
  std::string param(const std::string& key, const std::string& fallback = {}) const;
  bool has_param(const std::string& key) const;
  void add_param(const std::string& key, const std::string& value) {
    params.emplace_back(key, value);
  }
};

/// Caps a FrameReader enforces *before* allocating, so a hostile client
/// declaring a 2^60-byte payload costs one typed ProtocolError, not an
/// allocation attempt.
struct FrameLimits {
  std::size_t max_header_bytes = 4096;
  std::size_t max_payload_bytes = 256ull << 20;  // 256 MiB
};

/// Renders the header line and the length prefix: the bytes that go before
/// the payload. A ProtocolError if a token contains a space or newline —
/// ids, ops and params are ASCII tokens by construction; bulk data belongs
/// in the payload.
Result<std::string> encode_frame_header(const Frame& frame);

/// Writes one frame: the encoded header and the payload leave together in
/// one gather write (sendmsg over two buffers), so the payload is never
/// copied. `timeout_ms` bounds each poll wait (the slow-reader contract of
/// write_all).
Status write_frame(int fd, const Frame& frame, int timeout_ms);

/// Buffered frame parser over one socket. Distinguishes the three failure
/// classes the server must treat differently:
///   - clean EOF at a frame boundary → read() returns false (peer done);
///   - malformed input (bad magic, missing tokens, header over the cap,
///     declared payload length over the cap) → typed ProtocolError;
///   - transport trouble (EOF mid-frame, poll timeout, recv failure) →
///     typed IoError.
class FrameReader {
 public:
  FrameReader(int fd, FrameLimits limits, int timeout_ms)
      : fd_(fd), limits_(limits), timeout_ms_(timeout_ms) {}

  /// Reads one complete frame into `out`. Returns false on clean EOF before
  /// the first byte of a new frame; true when `out` holds a frame. The
  /// payload is resized once to the declared length, after the cap check,
  /// and filled in place; a caller that passes the same Frame again reuses
  /// its payload's capacity. On an error `out` holds no frame.
  Result<bool> read(Frame& out);

 private:
  /// Ensures buffer_ holds at least `n` unconsumed bytes.
  Status fill(std::size_t n);

  int fd_;
  FrameLimits limits_;
  int timeout_ms_;
  std::string buffer_;   ///< unconsumed bytes read past the previous frame
};

/// Inverse of tdc::to_string(ErrorKind) — how a client reconstructs the
/// typed error a daemon reported in a `kind=` response param. ProtocolError
/// when the name is unknown (a newer daemon, a corrupted frame).
Result<ErrorKind> parse_error_kind(const std::string& name);

/// The error-frame convention, in one place for server and client:
/// op "error", kind= param, chunk=/byte=/code=/bit= params for the
/// positions that are >= 0, message as payload.
Frame make_error_frame(const std::string& id, const Error& error);

/// Reconstructs the typed Error of an error frame, positions included, so
/// its describe() equals the sender's. A frame without a recognizable kind
/// or with a malformed position decodes to a ProtocolError (the failure to
/// decode is itself an Error, so no Result wrapper here).
Error decode_error_frame(const Frame& frame);

}  // namespace tdc::service

#endif  // TDC_SERVICE_FRAMING_H
