#ifndef TDC_ENGINE_MANIFEST_H
#define TDC_ENGINE_MANIFEST_H

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/error.h"
#include "lzw/encoder.h"
#include "lzw/stream_io.h"
#include "scan/testset.h"

namespace tdc::engine {

/// One batch job: where the test set comes from, how it is compressed, and
/// where the container goes. Exactly one input source is set.
struct JobSpec {
  std::string name;

  // --- input source (exactly one)
  std::string input_path;   ///< a .tests cube file
  std::string gen_circuit;  ///< suite profile name, prepared via exp::prepare
  std::shared_ptr<const scan::TestSet> inline_tests;  ///< benches/tests

  // --- codec parameterization
  lzw::LzwConfig config;
  lzw::Tiebreak tiebreak = lzw::Tiebreak::First;
  lzw::XAssignMode xassign = lzw::XAssignMode::Dynamic;
  std::uint64_t rng_seed = 1;  ///< only meaningful for XAssignMode::RandomFill

  /// Multi-codec selection mode (`codec=` / `--codec`): a codec token,
  /// "auto" or "race" routes the job through per-chunk selection and a
  /// version-3 container. Empty keeps the legacy whole-buffer LZW path and
  /// the v1/v2 container bytes exactly as before.
  std::string codec;
  std::uint32_t chunk_trits = 0;  ///< 0 = codec::kDefaultChunkTrits

  // --- container + destination
  lzw::ContainerOptions container;
  std::string output_path;  ///< empty: container kept in memory only

  /// Request-scoped trace id, propagated by the service daemon from the
  /// wire protocol's `trace=<id>` param into this job's engine span args so
  /// one Perfetto view links client, dispatcher and worker. Batch jobs
  /// leave it empty — the manifest format has no such key.
  std::string trace;
};

/// An ordered batch of jobs — the unit the engine runs.
struct Manifest {
  std::vector<JobSpec> jobs;
};

/// Stable lower-case names used by the manifest format and the batch report.
const char* tiebreak_name(lzw::Tiebreak tiebreak);
const char* xassign_name(lzw::XAssignMode mode);
Result<lzw::Tiebreak> parse_tiebreak(const std::string& name);
Result<lzw::XAssignMode> parse_xassign(const std::string& name);

/// Parses the line-oriented manifest format:
///
///     # opentdc batch manifest
///     version 1
///     job name=first input=a.tests dict=1024 char=7 entry=63 out=a.tdclzw
///     job name=v1 gen=itc_b09f dict=256 tiebreak=lookahead container=1
///
/// One `job` line per job, `key=value` tokens plus the bare flag
/// `variable`. Keys: name, input, gen, dict, char, entry, tiebreak
/// (first|lowestchar|mostrecent|mostchildren|lookahead), xassign
/// (dynamic|zero|one|repeat|random), seed, container (1|2), chunk, out,
/// codec (a codec token|auto|race — selects the v3 multi-codec container),
/// chunk_trits (per-chunk granularity for codec= jobs).
/// Relative input paths resolve against `base_dir`; output paths are left
/// relative (the engine's output_dir option anchors them at run time).
/// Numbers are decimal digits only and must fit their field. Every job is
/// validated here — config realizability (including the 2^20 dictionary
/// cap), container options, duplicate names — so the engine only ever sees
/// runnable specs.
/// Errors are typed ConfigMismatch with the offending line number.
Result<Manifest> parse_manifest(std::istream& in, const std::string& base_dir = {});

/// parse_manifest over a file; IoError if it cannot be opened.
Result<Manifest> load_manifest(const std::string& path);

}  // namespace tdc::engine

#endif  // TDC_ENGINE_MANIFEST_H
