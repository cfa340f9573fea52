#ifndef PERFBENCH_DRIVER_COMMON_H
#define PERFBENCH_DRIVER_COMMON_H

// Shared pieces of the benchmark driver: seeded inputs, the workload
// interface, the timed measurement loop and the report the driver hands to
// perfbench/run.py (which turns it into the printed metrics).

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bits/tritvector.h"
#include "lzw/config.h"
#include "scan/testset.h"

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64). Used instead of <random>
/// engines + std::shuffle so a seed yields the same inputs with any
/// standard library.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvBasis);
std::string hex64(std::uint64_t v);

/// One Table 3 circuit as the workloads see it: the cached ATPG cube set
/// with its pattern order shuffled by the workload seed.
struct Circuit {
  std::string name;
  tdc::lzw::LzwConfig config;  ///< the paper's configuration (Table 3 N)
  tdc::scan::TestSet tests;
  std::string tests_text;          ///< `tests` in the .tests text format
  tdc::bits::TritVector stream;    ///< tests.serialize()
};

struct Inputs {
  std::vector<Circuit> circuits;  ///< Table 3 order
  std::uint64_t digest = 0;       ///< over every circuit's .tests text
};

/// Prepares the 12 Table 3 circuits through exp::prepare (cached under
/// $TDC_CACHE_DIR) and shuffles each set's pattern order by `seed`.
Inputs make_inputs(std::uint64_t seed);

/// Outcome of one timed operation.
struct OpResult {
  std::uint64_t trits = 0;  ///< original scan trits the op processed
  bool ok = true;
  std::string error;        ///< first line of what went wrong
};

/// What a workload adds to the report beyond the timed samples.
struct Report {
  std::map<std::string, double> layer;     ///< per-layer values in final units
  std::map<std::string, double> work;      ///< units of work behind a span name
  std::uint64_t container_bytes = 0;       ///< ratio basis: bytes ...
  std::uint64_t container_trits = 0;       ///< ... over original trits
};

/// Counter totals sampled around a phase (deltas become per-layer values).
using Counters = std::map<std::string, double>;

/// One benchmarked path. The driver times setup() (construction plus one
/// warm-up pass over the distinct inputs) several times, tearing down in
/// between, then calls op() in a closed loop on lanes() threads.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual unsigned lanes() const { return 1; }
  /// Ops per lane that cover every distinct input exactly once (a lane's
  /// ops are a sequence of such cycles). A lane stops only between cycles,
  /// so every run measures the same work mix.
  virtual std::size_t cycle_ops() const = 0;

  virtual void setup() = 0;
  virtual void teardown() = 0;
  virtual OpResult op(unsigned lane) = 0;

  /// Cumulative program counters of the current set-up's objects; the
  /// driver takes deltas over each slice of a phase and sums them.
  virtual Counters counters() { return {}; }
  /// Fills workload-specific report fields; `untraced` holds the counter
  /// deltas of the untraced phase, `ops` its op count.
  virtual void report(Report& out, const Counters& untraced, std::uint64_t ops) = 0;
};

struct WorkloadConfig {
  std::uint64_t seed = 1;
  std::string run_dir;  ///< directory owned by this run (the CWD)
};

std::unique_ptr<Workload> make_batch_suite(const Inputs& inputs,
                                           const WorkloadConfig& config);
std::unique_ptr<Workload> make_daemon_roundtrip(const Inputs& inputs,
                                                const WorkloadConfig& config);
std::unique_ptr<Workload> make_decode_images(const Inputs& inputs,
                                             const WorkloadConfig& config);

/// Raised by setup() when the program misbehaves before measuring starts.
struct SetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H
