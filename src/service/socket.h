#ifndef TDC_SERVICE_SOCKET_H
#define TDC_SERVICE_SOCKET_H

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "core/error.h"

namespace tdc::service {

/// Move-only owner of a POSIX file descriptor. The service layer passes
/// raw ints to the IO helpers below but always keeps ownership in an Fd,
/// so a thrown exception or early return can never leak a descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Releases ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the held descriptor (if any) and adopts `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Puts `fd` in non-blocking mode — required before handing a descriptor to
/// the timed IO helpers below (an accepted socket does not inherit it).
Status set_nonblocking(int fd);

/// Binds and listens on a SOCK_STREAM unix-domain socket. Any stale file at
/// `path` is removed first — the daemon owns its socket path. IoError with
/// errno context on failure. The path must fit sockaddr_un (~107 bytes).
Result<Fd> listen_unix(const std::string& path, int backlog);

/// Connects to a listening unix-domain socket. IoError on failure.
Result<Fd> connect_unix(const std::string& path);

/// connect_unix, retried every ~20 ms until `wait_ms` elapses — lets a
/// client race a daemon that is still starting up.
Result<Fd> connect_unix_retry(const std::string& path, int wait_ms);

/// Writes all `size` bytes. `timeout_ms` bounds each poll wait (< 0 blocks
/// indefinitely); a peer that stops reading for longer than the timeout
/// yields a typed IoError instead of wedging the calling thread, which is
/// the slow-reader backpressure contract of the daemon. Sends with
/// SIGPIPE suppressed: a vanished peer is an IoError, never a signal.
Status write_all(int fd, const void* data, std::size_t size, int timeout_ms);

/// write_all of `head` then `body` as one byte sequence, gathered by
/// sendmsg from both buffers, so neither is copied into the other. One
/// send loop serves both forms: short writes resume mid-buffer and EAGAIN
/// polls, under the same timeout and SIGPIPE rules.
Status write_all(int fd, std::string_view head, std::string_view body, int timeout_ms);

/// Reads exactly `size` bytes, with the same timeout discipline. EOF before
/// `size` bytes is IoError (message "connection closed").
Status read_exact(int fd, void* data, std::size_t size, int timeout_ms);

/// Reads at most `size` bytes (at least 1, blocking per `timeout_ms`).
/// Returns 0 on EOF; IoError on failure or timeout.
Result<std::size_t> read_some(int fd, void* data, std::size_t size,
                              int timeout_ms);

/// A close-on-exec pipe: {read end, write end}. The server's stop self-pipe
/// (a one-byte write is async-signal-safe, so signal handlers can use it).
Result<std::pair<Fd, Fd>> make_pipe();

}  // namespace tdc::service

#endif  // TDC_SERVICE_SOCKET_H
