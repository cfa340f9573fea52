#include "service/server.h"

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <string>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/openmetrics.h"

namespace tdc::service {

namespace {

/// The most payload capacity a connection keeps between requests. A run
/// of large requests reuses one buffer instead of allocating, faulting in
/// and freeing a fresh one per frame; past this cap the buffer is released
/// after its request, so an idle connection holds at most this much.
constexpr std::size_t kKeptPayloadBytes = 1 << 20;

Frame busy_refusal() {
  Error e;
  e.kind = ErrorKind::Busy;
  e.message = "connection cap reached; retry";
  return make_error_frame("-", e);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      runner_(std::make_unique<engine::JobRunner>(
          engine::JobRunner::Options{options_.workers, options_.max_in_flight,
                                     options_.verify},
          &metrics_)),
      dispatcher_(*runner_, metrics_, options_.max_payload_bytes) {
  obs::Log::Options log_options;
  log_options.level = options_.log_level;
  log_options.sink = options_.log_sink;
  log_options.rate_per_sec = options_.log_rate_per_sec;
  log_.configure(std::move(log_options));
}

Server::~Server() {
  if (started_) {
    request_stop();
    wait();
  }
}

Status Server::start() {
  Result<std::pair<Fd, Fd>> pipe = make_pipe();
  if (!pipe.ok()) return pipe.error();
  stop_read_ = std::move(pipe.value().first);
  stop_write_ = std::move(pipe.value().second);
  stop_write_fd_ = stop_write_.get();

  Result<Fd> listener = listen_unix(options_.socket_path, 128);
  if (!listener.ok()) return listener.error();
  listen_fd_ = std::move(listener).take();

  epoch_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (!options_.metrics_log_path.empty()) {
    sampler_ = std::thread([this] { sampler_loop(); });
  }
  started_ = true;
  log_.info("server.listen")
      .str("socket", options_.socket_path)
      .u64("workers", options_.workers)
      .u64("max_connections", options_.max_connections);
  return {};
}

void Server::request_stop() {
  // Async-signal-safe by construction: one write() to the self-pipe, no
  // locks, no allocation. Extra bytes from repeated calls are harmless.
  if (stop_write_fd_ >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t rc = ::write(stop_write_fd_, &byte, 1);
  }
}

void Server::reap_finished() {
  core::MutexLock lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop() {
  for (;;) {
    struct pollfd pfds[2];
    pfds[0].fd = stop_read_.get();
    pfds[0].events = POLLIN;
    pfds[0].revents = 0;
    pfds[1].fd = listen_fd_.get();
    pfds[1].events = POLLIN;
    pfds[1].revents = 0;
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      log_.error("server.poll_failed").i64("errno", errno);
      return;
    }
    if (pfds[0].revents != 0) return;  // stop requested
    if (pfds[1].revents == 0) continue;

    Fd client(::accept4(listen_fd_.get(), nullptr, nullptr, SOCK_CLOEXEC));
    if (!client.valid()) continue;  // raced with the client going away
    if (!set_nonblocking(client.get()).ok()) continue;

    reap_finished();
    std::size_t live = 0;
    bool refused = false;
    {
      core::MutexLock lock(connections_mutex_);
      live = connections_.size();
      if (live >= options_.max_connections) {
        refused = true;
      } else {
        // Bump the live gauge before the thread exists so its exit-side
        // decrement can never be observed first.
        metrics_.counter("serve.connections.accepted").add();
        metrics_.gauge("serve.connections.live").add(1);
        auto conn = std::make_unique<Connection>();
        conn->fd = std::move(client);
        Connection* raw = conn.get();
        conn->thread = std::thread([this, raw] { serve_connection(raw); });
        connections_.push_back(std::move(conn));
      }
    }
    if (refused) {
      metrics_.counter("serve.connections.refused").add();
      log_.warn("conn.refused").u64("live", live);
      // A typed refusal, not a silent close — bounded by a short write
      // timeout, and issued after the table lock is released so a hostile
      // non-reading peer can stall at most the acceptor's own write, never
      // reap/shutdown paths that need the connection table.
      (void)write_frame(client.get(), busy_refusal(), 1000);
      continue;
    }
    log_.debug("conn.accept").u64("live", live + 1);
  }
}

void Server::serve_connection(Connection* conn) {
  const int fd = conn->fd.get();
  FrameReader reader(
      fd, FrameLimits{.max_payload_bytes = options_.max_payload_bytes},
      options_.io_timeout_ms);
  Frame request;  // kept across requests, see kKeptPayloadBytes
  for (;;) {
    Result<bool> got = reader.read(request);
    if (!got.ok()) {
      if (got.error().kind == ErrorKind::ProtocolError) {
        metrics_.counter("serve.protocol_errors").add();
        log_.warn("conn.protocol_error").str("detail", got.error().message);
        // Best-effort: tell the peer why before hanging up. Its id is
        // unknowable from a malformed frame, hence the "-" placeholder.
        (void)write_frame(fd, make_error_frame("-", got.error()), 1000);
      } else {
        metrics_.counter("serve.io_errors").add();
      }
      break;
    }
    if (!got.value()) break;  // clean EOF: the peer is done

    const Frame response = dispatcher_.handle(request);
    if (request.payload.capacity() > kKeptPayloadBytes) std::string().swap(request.payload);
    if (Status s = write_frame(fd, response, options_.io_timeout_ms); !s.ok()) {
      metrics_.counter("serve.io_errors").add();
      log_.warn("conn.write_failed").str("detail", s.error().describe());
      break;
    }
  }
  // Hang up the wire right now so the peer sees EOF immediately; the
  // descriptor itself stays reserved until reap/join (closing here could
  // let the number be reused while wait() still holds a pointer to it).
  ::shutdown(fd, SHUT_RDWR);
  metrics_.counter("serve.connections.closed").add();
  metrics_.gauge("serve.connections.live").add(-1);
  log_.debug("conn.close");
  conn->finished.store(true, std::memory_order_release);
}

void Server::sampler_loop() {
  std::ofstream out(options_.metrics_log_path, std::ios::app);
  if (!out) {
    log_.error("sampler.open_failed").str("path", options_.metrics_log_path);
    return;
  }
  const auto interval =
      std::chrono::milliseconds(std::max(options_.metrics_interval_ms, 1));
  const auto sample = [this, &out] {
    metrics_.gauge("process.rss_bytes")
        .set(static_cast<std::int64_t>(obs::process_rss_bytes()));
    const std::uint64_t ts_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
    out << obs::metrics_ndjson_line(metrics_.snapshot(), ts_ms) << '\n';
    out.flush();
  };
  core::MutexLock lock(sampler_mutex_);
  while (!sampler_stop_) {
    sampler_cv_.wait_for(lock, interval);
    lock.unlock();
    // One snapshot per tick plus a final one on the way out, so the log
    // always ends with the post-drain state the operator actually cares
    // about after an incident. The lock is dropped around sample() — it
    // writes to disk, and the shutdown path must never wait on a file. A
    // spurious wakeup costs one early snapshot, nothing else.
    sample();
    lock.lock();
  }
}

int Server::wait() {
  if (!started_) return 0;
  if (accept_thread_.joinable()) accept_thread_.join();

  // No new connections can appear now. Half-close every live connection so
  // a thread blocked in read() sees EOF immediately, while the response it
  // may still be writing flows out unharmed — that is the "drain in-flight,
  // refuse new" shutdown contract.
  {
    core::MutexLock lock(connections_mutex_);
    for (const auto& conn : connections_) {
      ::shutdown(conn->fd.get(), SHUT_RD);
    }
  }
  // Threads only ever exit on their own after SHUT_RD; joining outside the
  // lock is safe because the accept loop (the other mutator) has exited.
  std::list<std::unique_ptr<Connection>> remaining;
  {
    core::MutexLock lock(connections_mutex_);
    remaining.swap(connections_);
  }
  for (const auto& conn : remaining) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  remaining.clear();

  runner_->stop();
  // Stop the sampler after the runner so its final NDJSON line records the
  // settled end state (nothing in flight, connections closed).
  if (sampler_.joinable()) {
    {
      core::MutexLock lock(sampler_mutex_);
      sampler_stop_ = true;
    }
    sampler_cv_.notify_all();
    sampler_.join();
  }
  listen_fd_.reset();
  ::unlink(options_.socket_path.c_str());
  started_ = false;
  log_.info("server.stop")
      .u64("connections",
           metrics_.counter("serve.connections.accepted").value());
  return 0;
}

}  // namespace tdc::service
