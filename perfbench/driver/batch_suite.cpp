// batch_suite: the offline batch path. One op is one Engine::run over a
// 12-job manifest (every Table 3 circuit, read from .tests files) with two
// workers per stage and verify on.
//
// The jobs run in Table 3 order for every seed. A manifest's wall time
// depends strongly on its job order (which big jobs a stage worker grabs
// in one batch): over eight random orders of these jobs the median run
// took 37 to 69 ms, so a seeded order would let the seed, not the
// program, set the figures. The seed still shuffles every test set's
// pattern order.

#include <fstream>
#include <sstream>

#include "codec/codec.h"
#include "common.h"
#include "engine/engine.h"
#include "lzw/stream_io.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

constexpr const char* kTiebreaks[] = {"first", "lowestchar", "mostrecent",
                                      "mostchildren", "lookahead"};
constexpr const char* kStages[] = {"load", "encode", "container", "verify"};
constexpr const char* kQueues[] = {"load", "encode", "container", "verify", "done"};

/// The job line for the i-th Table 3 circuit. The configuration depends on
/// the circuit only (the seed just reorders jobs), so every seed runs the
/// same work: tiebreaks cycle, fixed/variable width alternate, every third
/// job writes a v1 container and every fourth goes through codec=auto at a
/// 4096-trit chunk granularity (a v3 container).
std::string job_line(const Circuit& c, std::size_t i) {
  std::ostringstream line;
  line << "job name=" << c.name << " input=" << c.name << ".tests"
       << " dict=" << c.config.dict_size << " char=" << c.config.char_bits
       << " entry=" << c.config.entry_bits << " tiebreak=" << kTiebreaks[i % 5];
  if (i % 2 == 1) line << " variable";
  if (i % 4 == 3) {
    line << " codec=auto chunk_trits=4096";
  } else if (i % 3 == 2) {
    line << " container=1";
  }
  return line.str();
}

class BatchSuite final : public Workload {
 public:
  BatchSuite(const Inputs& inputs, const WorkloadConfig& config) {
    // Input generation (untimed): the .tests files and the manifest.
    std::ostringstream manifest;
    manifest << "version 1\n";
    for (std::size_t i = 0; i < inputs.circuits.size(); ++i) {
      const Circuit& c = inputs.circuits[i];
      std::ofstream(config.run_dir + "/" + c.name + ".tests") << c.tests_text;
      manifest << job_line(c, i) << "\n";
      trits_ += c.stream.size();
      if (i % 4 == 3) auto_trits_ += c.stream.size();
    }
    std::istringstream in(manifest.str());
    tdc::Result<tdc::engine::Manifest> parsed =
        tdc::engine::parse_manifest(in, config.run_dir);
    if (!parsed.ok()) throw SetupError("manifest: " + parsed.error().describe());
    manifest_ = std::move(parsed).take();
  }

  std::size_t cycle_ops() const override { return 1; }

  void setup() override {
    tdc::engine::EngineOptions options;
    options.workers = 2;
    options.verify = true;
    engine_ = std::make_unique<tdc::engine::Engine>(options);
    tdc::engine::BatchResult warm = engine_->run(manifest_);
    if (warm.ok_count() != warm.jobs.size()) {
      throw SetupError("warm-up batch had failing jobs:\n" + warm.report());
    }
    const std::uint64_t d = digest(warm);
    if (reference_ == nullptr) {
      reference_ = std::make_unique<tdc::engine::BatchResult>(std::move(warm));
      reference_digest_ = d;
    } else if (d != reference_digest_) {
      throw SetupError("warm-up batch output differs between set-ups");
    }
  }

  void teardown() override { engine_.reset(); }

  OpResult op(unsigned) override {
    OpResult r;
    r.trits = trits_;
    ++ops_;
    const tdc::engine::BatchResult result = engine_->run(manifest_);
    tdc::obs::TraceSpan check("bench.check");
    if (result.ok_count() != result.jobs.size()) {
      r.ok = false;
      r.error = "batch had failing jobs";
    } else if (digest(result) != reference_digest_) {
      r.ok = false;
      r.error = "batch report or container bytes differ from the warm-up run";
    }
    return r;
  }

  Counters counters() override {
    const tdc::obs::RegistrySnapshot s = engine_->metrics().snapshot();
    Counters c;
    for (const char* stage : kStages) {
      const auto it = s.histograms.find(std::string(stage) + ".micros");
      c[std::string("busy.") + stage] =
          it == s.histograms.end() ? 0.0 : static_cast<double>(it->second.sum);
    }
    const auto counter = [&s](const std::string& name) {
      const auto it = s.counters.find(name);
      return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    for (const char* q : kQueues) {
      const std::string prefix = std::string("queue.") + q + ".";
      c["blocked"] += counter(prefix + "push_blocked_micros") +
                      counter(prefix + "pop_blocked_micros");
      c["notifies"] += counter(prefix + "notifies_sent");
    }
    // Per op, the auto jobs' trits pass once through encode_chunks and once
    // through decode_records (the verify stage); every job passes the load
    // stage (read_tests_file + serialize).
    const double ops = static_cast<double>(ops_);
    c["work.codec.encode_chunks"] = ops * static_cast<double>(auto_trits_);
    c["work.codec.decode_records"] = ops * static_cast<double>(auto_trits_);
    c["work.engine.load"] = ops * static_cast<double>(trits_);
    return c;
  }

  void report(Report& out, const Counters& delta, std::uint64_t ops) override {
    const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
    for (const char* stage : kStages) {
      out.layer[std::string("engine.") + stage + ".busy_ms"] =
          delta.at(std::string("busy.") + stage) / 1000.0 / n;
    }
    out.layer["engine.queue.blocked_ms"] = delta.at("blocked") / 1000.0 / n;
    out.layer["engine.queue.notifies_sent"] = delta.at("notifies") / n;

    // Selection accounting over the (deterministic) containers of one run.
    std::map<std::string, double> picks;
    for (const std::uint8_t id : {1, 2, 3, 4, 5, 6}) {
      picks[tdc::codec::to_string(static_cast<tdc::codec::CodecId>(id))] = 0.0;
    }
    std::uint64_t auto_bits = 0, auto_paper_bits = 0;
    for (const tdc::engine::JobOutcome& job : reference_->jobs) {
      out.container_bytes += job.container_bytes;
      out.container_trits += job.original_bits;
      if (job.container_version != 3) continue;
      std::istringstream in(job.container, std::ios::binary);
      const tdc::Result<tdc::lzw::CompressedImage> image = tdc::lzw::try_read_image(in);
      if (!image.ok()) throw SetupError("v3 container unreadable: " + image.error().describe());
      for (const tdc::lzw::ChunkRecord& record : image.value().chunks) {
        picks[tdc::codec::to_string(static_cast<tdc::codec::CodecId>(record.codec_id))] += 1;
      }
      auto_bits += 8 * job.container_bytes;
      auto_paper_bits += job.compressed_bits;
    }
    for (const auto& [name, count] : picks) out.layer["codec.picks." + name] = count;
    out.layer["codec.side_info_pct"] =
        auto_bits == 0 ? 0.0
                       : 100.0 * (static_cast<double>(auto_bits) -
                                  static_cast<double>(auto_paper_bits)) /
                             static_cast<double>(auto_bits);
  }

 private:
  static std::uint64_t digest(const tdc::engine::BatchResult& result) {
    std::uint64_t h = fnv1a(result.report());
    for (const tdc::engine::JobOutcome& job : result.jobs) h = fnv1a(job.container, h);
    return h;
  }

  tdc::engine::Manifest manifest_;
  std::uint64_t trits_ = 0;
  std::uint64_t auto_trits_ = 0;  ///< trits of the codec=auto jobs
  std::uint64_t ops_ = 0;
  std::unique_ptr<tdc::engine::Engine> engine_;
  std::unique_ptr<tdc::engine::BatchResult> reference_;
  std::uint64_t reference_digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_batch_suite(const Inputs& inputs,
                                           const WorkloadConfig& config) {
  return std::make_unique<BatchSuite>(inputs, config);
}

}  // namespace perfbench
