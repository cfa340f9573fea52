#include "service/socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

namespace tdc::service {

namespace {

Error io_error(const std::string& what) {
  Error e;
  e.kind = ErrorKind::IoError;
  e.message = what;
  if (errno != 0) {
    e.message += ": ";
    e.message += std::strerror(errno);
  }
  return e;
}

/// Waits until `fd` is ready for `events` (POLLIN/POLLOUT). timeout_ms < 0
/// blocks indefinitely. IoError on poll failure or timeout.
Status wait_ready(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return {};
    if (rc == 0) {
      Error e;
      e.kind = ErrorKind::IoError;
      e.message = events == POLLOUT ? "write timeout" : "read timeout";
      return e;
    }
    if (errno == EINTR) continue;
    return io_error("poll");
  }
}

Result<sockaddr_un> unix_address(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    Error e;
    e.kind = ErrorKind::InvalidInput;
    e.message = "socket path must be 1.." +
                std::to_string(sizeof addr.sun_path - 1) + " bytes: " + path;
    return e;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return io_error("fcntl(O_NONBLOCK)");
  }
  return {};
}

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Result<Fd> listen_unix(const std::string& path, int backlog) {
  Result<sockaddr_un> addr = unix_address(path);
  if (!addr.ok()) return addr.error();
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return io_error("socket");
  ::unlink(path.c_str());  // the daemon owns its socket path; drop stale files
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr.value()),
             sizeof addr.value()) != 0) {
    return io_error("bind " + path);
  }
  if (::listen(fd.get(), backlog) != 0) return io_error("listen " + path);
  if (Status s = set_nonblocking(fd.get()); !s.ok()) return s.error();
  return fd;
}

Result<Fd> connect_unix(const std::string& path) {
  Result<sockaddr_un> addr = unix_address(path);
  if (!addr.ok()) return addr.error();
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return io_error("socket");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr.value()),
                sizeof addr.value()) != 0) {
    return io_error("connect " + path);
  }
  if (Status s = set_nonblocking(fd.get()); !s.ok()) return s.error();
  return fd;
}

Result<Fd> connect_unix_retry(const std::string& path, int wait_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(wait_ms < 0 ? 0 : wait_ms);
  for (;;) {
    Result<Fd> fd = connect_unix(path);
    if (fd.ok() || std::chrono::steady_clock::now() >= deadline) return fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

Status write_all(int fd, const void* data, std::size_t size, int timeout_ms) {
  return write_all(fd, std::string_view(static_cast<const char*>(data), size), {},
                   timeout_ms);
}

Status write_all(int fd, std::string_view head, std::string_view body, int timeout_ms) {
  iovec parts[2] = {{const_cast<char*>(head.data()), head.size()},
                    {const_cast<char*>(body.data()), body.size()}};
  iovec* next = parts;
  std::size_t left = 2;
  // Drops the parts the last send finished, and trims a part it cut short.
  const auto advance = [&](std::size_t sent) {
    while (left > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --left;
    }
    if (left > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  };
  advance(0);
  while (left > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = left;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      advance(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (Status s = wait_ready(fd, POLLOUT, timeout_ms); !s.ok()) return s;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return io_error("send");
  }
  return {};
}

Result<std::size_t> read_some(int fd, void* data, std::size_t size,
                              int timeout_ms) {
  for (;;) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (Status s = wait_ready(fd, POLLIN, timeout_ms); !s.ok()) {
        return s.error();
      }
      continue;
    }
    if (errno == EINTR) continue;
    return io_error("recv");
  }
}

Status read_exact(int fd, void* data, std::size_t size, int timeout_ms) {
  char* p = static_cast<char*>(data);
  std::size_t remaining = size;
  while (remaining > 0) {
    Result<std::size_t> n = read_some(fd, p, remaining, timeout_ms);
    if (!n.ok()) return n.error();
    if (n.value() == 0) {
      Error e;
      e.kind = ErrorKind::IoError;
      e.message = "connection closed";
      return e;
    }
    p += n.value();
    remaining -= n.value();
  }
  return {};
}

Result<std::pair<Fd, Fd>> make_pipe() {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return io_error("pipe2");
  return std::make_pair(Fd(fds[0]), Fd(fds[1]));
}

}  // namespace tdc::service
