#ifndef TDC_SERVICE_SERVER_H
#define TDC_SERVICE_SERVER_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "core/thread_safety.h"
#include "engine/engine.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "service/dispatch.h"
#include "service/framing.h"
#include "service/socket.h"

namespace tdc::service {

struct ServerOptions {
  /// Unix-domain socket path the daemon listens on (required; must fit
  /// sockaddr_un, ~107 bytes).
  std::string socket_path;

  /// Requests computed at once, each on its own connection thread;
  /// 0 = exp::ThreadPool::default_jobs().
  unsigned workers = 0;

  /// Requests waiting to compute + computing before requests get a Busy
  /// refusal; 0 = 2 * workers (JobRunner's default).
  std::size_t max_in_flight = 0;

  /// Concurrent connections; one past the cap is answered with a Busy error
  /// frame and closed without costing a thread.
  std::size_t max_connections = 64;

  /// Run the verify stage on compress jobs (read-back + decode + coverage).
  bool verify = true;

  /// Per-frame payload cap, enforced before allocation (ProtocolError past
  /// it). Defaults to FrameLimits' 256 MiB. A decompress or verify of an
  /// image declaring more trits than this is refused before decoding
  /// (ConfigMismatch): the .tests reply holds one byte per trit.
  std::size_t max_payload_bytes = FrameLimits{}.max_payload_bytes;

  /// Bounds every per-connection socket wait (read and write). A peer that
  /// goes quiet — or stops reading its response — for longer than this
  /// loses its connection with a typed IoError; it never wedges a worker,
  /// because engine workers do not touch sockets at all. < 0 blocks forever.
  int io_timeout_ms = 30000;

  /// Structured-log sink: receives one deterministic JSON line per
  /// lifecycle / connection event (obs::Log; "server.listen",
  /// "conn.refused", "server.stop", …). Empty = silent — the service
  /// library itself never prints.
  obs::Log::Sink log_sink;

  /// Severity threshold for log_sink (per-connection accept/close chatter
  /// sits at Debug, lifecycle and errors at Info and above).
  obs::LogLevel log_level = obs::LogLevel::Info;

  /// Sustained log lines per second past obs::Log's burst of 32 before
  /// the token bucket suppresses (suppressed lines surface as a
  /// "dropped": N field on the next emitted line). 0 = unlimited.
  double log_rate_per_sec = 0.0;

  /// When non-empty, a sampler thread appends one NDJSON metrics snapshot
  /// (obs::metrics_ndjson_line) to this file every metrics_interval_ms,
  /// plus a final snapshot at shutdown — the flight recorder an operator
  /// greps after the fact, where the `metrics` op is the live scrape.
  std::string metrics_log_path;
  int metrics_interval_ms = 1000;
};

/// The tdcd daemon: accepts framed requests over a unix-domain socket and
/// runs every client's requests through one shared engine::JobRunner.
///
/// Threading model: one accept thread and one thread per live connection
/// (bounded by max_connections), nothing else. A connection thread reads
/// one frame, hands it to the Dispatcher, which computes it on that same
/// thread once the runner's running cap (`workers`) has a slot, writes the
/// response, and repeats — so per-client requests are strictly ordered,
/// while clients run concurrently under the runner's in-flight and running
/// caps. Job isolation is per request: a typed failure becomes that
/// request's error frame and touches nothing else.
///
/// Shutdown: request_stop() is async-signal-safe (one byte to a self-pipe),
/// so SIGINT/SIGTERM handlers may call it directly. wait() then stops
/// accepting, lets every in-flight request finish (connection sockets are
/// shutdown(SHUT_RD), so blocked reads see a clean EOF while responses
/// still flow out), joins all threads, stops the runner and removes the
/// socket file.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  ///< request_stop() + wait() if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the accept thread. IoError on a bad or busy
  /// socket path.
  Status start();

  /// Begins graceful shutdown. Async-signal-safe; callable from any thread
  /// or signal handler, any number of times.
  void request_stop();

  /// Blocks until the daemon has fully stopped (after request_stop()) and
  /// every in-flight request drained. Returns 0 on a clean shutdown.
  int wait();

  obs::MetricsRegistry& metrics() { return metrics_; }
  engine::JobRunner& runner() { return *runner_; }
  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct Connection {
    Fd fd;
    std::thread thread;
    // tdc-sync: release on the serving thread's last store / acquire in
    // reap_finished(), so everything the connection wrote happens-before
    // the join-and-erase that frees it.
    std::atomic<bool> finished{false};
  };

  void accept_loop();
  void serve_connection(Connection* conn);
  void reap_finished();  ///< joins and frees connections that already ended
  void sampler_loop();   ///< appends NDJSON snapshots to metrics_log_path

  ServerOptions options_;
  obs::MetricsRegistry metrics_;
  obs::Log log_;
  std::unique_ptr<engine::JobRunner> runner_;
  Dispatcher dispatcher_;

  Fd listen_fd_;
  Fd stop_read_, stop_write_;
  int stop_write_fd_ = -1;  ///< plain copy a signal handler can read safely
  std::thread accept_thread_;
  bool started_ = false;

  core::Mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_
      TDC_GUARDED_BY(connections_mutex_);

  std::chrono::steady_clock::time_point epoch_;  ///< ts_ms base for NDJSON
  std::thread sampler_;
  core::Mutex sampler_mutex_;
  core::CondVar sampler_cv_;
  bool sampler_stop_ TDC_GUARDED_BY(sampler_mutex_) = false;
};

}  // namespace tdc::service

#endif  // TDC_SERVICE_SERVER_H
