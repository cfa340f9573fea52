// daemon_roundtrip: the `tdc_cli client` path. An in-process tdcd server
// (two pool workers, verify on) on a unix socket, driven by two closed-loop
// clients, one per lane: each sends `compress` with a circuit's .tests text,
// then `decompress` with the container it got back. One op is one request.

#include <sstream>

#include "common.h"
#include "lzw/encoder.h"
#include "lzw/stream_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scan/testset_io.h"
#include "service/client.h"
#include "service/server.h"

namespace perfbench {
namespace {

constexpr unsigned kLanes = 2;
constexpr const char* kOps[] = {"compress", "decompress"};

std::string bucket_key(const char* op, std::size_t bucket) {
  return std::string("bucket.") + op + "." + std::to_string(bucket);
}

class DaemonRoundtrip final : public Workload {
 public:
  DaemonRoundtrip(const Inputs& inputs, const WorkloadConfig& config)
      : inputs_(inputs) {
    // Reference outputs (untimed): what the offline encoder and container
    // writer produce for each circuit at the daemon's default knobs.
    for (const Circuit& c : inputs.circuits) {
      const tdc::lzw::EncodeResult encoded = tdc::lzw::Encoder(c.config).encode(c.stream);
      std::ostringstream out(std::ios::binary);
      tdc::lzw::write_image(out, encoded);
      expected_.push_back(std::move(out).str());
    }
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      lanes_.emplace_back(config.seed * kLanes + lane, inputs.circuits.size());
    }
  }

  unsigned lanes() const override { return kLanes; }
  std::size_t cycle_ops() const override { return 2 * inputs_.circuits.size(); }

  void setup() override {
    tdc::service::ServerOptions options;
    options.socket_path = "tdcd.sock";  // relative: the run directory is the CWD
    options.workers = 2;
    options.verify = true;
    server_ = std::make_unique<tdc::service::Server>(options);
    if (const tdc::Status s = server_->start(); !s.ok()) {
      throw SetupError("server start: " + s.error().describe());
    }
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      tdc::service::ClientOptions client;
      client.socket_path = options.socket_path;
      client.connect_wait_ms = 2000;
      client.trace_id = "bench-c" + std::to_string(lane);
      tdc::Result<tdc::service::Client> connected = tdc::service::Client::connect(client);
      if (!connected.ok()) throw SetupError("connect: " + connected.error().describe());
      clients_.push_back(std::move(connected).take());
    }
    // Warm-up: one round trip per circuit, alternating clients.
    for (std::size_t i = 0; i < inputs_.circuits.size(); ++i) {
      tdc::service::Client& client = clients_[i % kLanes];
      std::string container;
      OpResult r = compress(client, i, container);
      if (r.ok) r = decompress(client, i, std::move(container));
      if (!r.ok) throw SetupError("warm-up " + inputs_.circuits[i].name + ": " + r.error);
    }
  }

  void teardown() override {
    clients_.clear();
    if (server_) {
      server_->request_stop();
      server_->wait();
      server_.reset();
    }
  }

  OpResult op(unsigned lane) override {
    Lane& l = lanes_[lane];
    if (l.pending.empty()) {
      l.circuit = l.next();
      OpResult r = compress(clients_[lane], l.circuit, l.pending);
      if (!r.ok) l.pending.clear();
      return r;
    }
    return decompress(clients_[lane], l.circuit, std::move(l.pending));
  }

  /// The daemon's registry, the one its `stats` op serializes: the
  /// runner's refusals and the bucket counts of serve.<op>.micros.
  Counters counters() override {
    const tdc::obs::RegistrySnapshot s = server_->metrics().snapshot();
    Counters c;
    const auto rejects = s.counters.find("runner.busy_rejects");
    c["busy_rejects"] = rejects == s.counters.end() ? 0.0 : static_cast<double>(rejects->second);
    for (const char* op : kOps) {
      const auto it = s.histograms.find(std::string("serve.") + op + ".micros");
      if (it == s.histograms.end()) continue;
      for (std::size_t b = 0; b < tdc::obs::HistogramSnapshot::kBuckets; ++b) {
        c[bucket_key(op, b)] = static_cast<double>(it->second.buckets[b]);
      }
    }
    return c;
  }

  void report(Report& out, const Counters& delta, std::uint64_t) override {
    for (std::size_t i = 0; i < inputs_.circuits.size(); ++i) {
      out.container_bytes += expected_[i].size();
      out.container_trits += inputs_.circuits[i].stream.size();
    }
    // The deltas cover the untraced slices' requests only: no warm-up
    // request of a set-up, and none of the traced phase.
    out.layer["engine.runner.busy_rejects"] = delta.at("busy_rejects");
    for (const char* op : kOps) {
      tdc::obs::HistogramSnapshot h;
      for (std::size_t b = 0; b < tdc::obs::HistogramSnapshot::kBuckets; ++b) {
        const auto it = delta.find(bucket_key(op, b));
        if (it == delta.end() || it->second == 0.0) continue;
        h.buckets[b] = static_cast<std::uint64_t>(it->second);
        h.count += h.buckets[b];
        h.max = tdc::obs::bucket_upper(b);
      }
      out.layer[std::string("service.") + op + ".server_us_p50"] = h.p50();
    }
  }

 private:
  /// A client's seeded schedule: every circuit once per cycle, each cycle
  /// in a fresh order, so all circuits get equal weight at any run length.
  struct Lane {
    Lane(std::uint64_t seed, std::size_t circuits) : rng(seed), order(circuits) {
      for (std::size_t i = 0; i < circuits; ++i) order[i] = i;
      pos = order.size();
    }
    std::size_t next() {
      if (pos == order.size()) {
        shuffle(order, rng);
        pos = 0;
      }
      return order[pos++];
    }
    SplitMix rng;
    std::vector<std::size_t> order;
    std::size_t pos;
    std::size_t circuit = 0;
    std::string pending;  ///< container awaiting its decompress request
  };

  OpResult compress(tdc::service::Client& client, std::size_t i, std::string& container) {
    const Circuit& c = inputs_.circuits[i];
    OpResult r;
    r.trits = c.stream.size();
    tdc::Result<tdc::service::Frame> resp = client.call(
        "compress",
        {{"dict", std::to_string(c.config.dict_size)},
         {"char", std::to_string(c.config.char_bits)},
         {"entry", std::to_string(c.config.entry_bits)}},
        c.tests_text);
    tdc::obs::TraceSpan check("bench.check");
    if (!resp.ok()) {
      r.ok = false;
      r.error = "compress " + c.name + ": " + resp.error().describe();
    } else if (resp.value().payload != expected_[i]) {
      r.ok = false;
      r.error = "compress " + c.name + ": container differs from the offline encoder";
    } else {
      container = std::move(resp.value().payload);
    }
    return r;
  }

  OpResult decompress(tdc::service::Client& client, std::size_t i, std::string container) {
    const Circuit& c = inputs_.circuits[i];
    OpResult r;
    r.trits = c.stream.size();
    tdc::Result<tdc::service::Frame> resp =
        client.call("decompress", {}, std::move(container));
    if (!resp.ok()) {
      r.ok = false;
      r.error = "decompress " + c.name + ": " + resp.error().describe();
      return r;
    }
    tdc::scan::TestSet decoded;
    {
      tdc::obs::TraceSpan span("bench.read_tests");
      span.arg("trits", static_cast<std::uint64_t>(c.stream.size()));
      std::istringstream in(resp.value().payload);
      try {
        decoded = tdc::scan::read_tests(in);
      } catch (const std::exception& e) {
        r.ok = false;
        r.error = "decompress " + c.name + ": unreadable .tests reply: " + e.what();
        return r;
      }
    }
    tdc::obs::TraceSpan check("bench.check");
    if (decoded.cubes.size() != 1 || decoded.cubes[0].size() != c.stream.size() ||
        !c.stream.covered_by(decoded.cubes[0])) {
      r.ok = false;
      r.error = "decompress " + c.name + ": stream does not cover the original care bits";
    }
    return r;
  }

  const Inputs& inputs_;
  std::vector<std::string> expected_;
  std::vector<Lane> lanes_;
  std::unique_ptr<tdc::service::Server> server_;
  std::vector<tdc::service::Client> clients_;
};

}  // namespace

std::unique_ptr<Workload> make_daemon_roundtrip(const Inputs& inputs,
                                                const WorkloadConfig& config) {
  return std::make_unique<DaemonRoundtrip>(inputs, config);
}

}  // namespace perfbench
