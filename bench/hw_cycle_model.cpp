// Exercises the paper's Fig. 5/6 hardware model end to end on one circuit:
// cycle breakdown of the decompressor, dictionary memory geometry and mux
// overhead (embedded-memory reuse), and a functional equivalence check of
// the modeled scan-out stream against the software decoder.
#include <cstdio>

#include "exp/flow.h"
#include "exp/table.h"
#include "hw/decompressor.h"
#include "lzw/decoder.h"
#include "lzw/encoder.h"

int main() {
  using namespace tdc;
  const auto& profile = gen::find_profile("s9234f");
  const exp::PreparedCircuit pc = exp::prepare(profile);
  const bits::TritVector stream = pc.tests.serialize();
  const lzw::LzwConfig config = exp::paper_lzw_config(profile);
  const auto encoded = lzw::Encoder(config).encode(stream);

  std::printf("Fig. 5/6 — cycle-accurate decompressor model on %s\n\n",
              profile.name.c_str());

  const hw::DictionaryMemoryModel memory(config);
  std::printf("dictionary memory: %s (%llu bits reused, %llu mux bits added)\n",
              memory.geometry().c_str(),
              static_cast<unsigned long long>(memory.total_bits()),
              static_cast<unsigned long long>(memory.mux_overhead_bits()));

  exp::Table table({"clock", "internal cyc", "tester cyc", "stall cyc",
                    "shift cyc", "improvement"});
  for (const std::uint32_t k : {2u, 4u, 8u, 10u, 16u, 32u}) {
    const hw::DecompressorModel model(hw::HwConfig{.lzw = config, .clock_ratio = k});
    const hw::HwRunResult run = model.run(encoded);

    // Functional check: the hardware model's scan stream must match the
    // software reference decoder bit for bit.
    bits::BitReader reader(encoded.stream);
    const auto sw =
        lzw::Decoder(config).decode_stream(reader, encoded.code_count, encoded.original_bits);
    if (!(run.scan_bits == sw.bits)) {
      std::printf("FAIL: hardware scan-out differs from software decoder at %ux\n", k);
      return 1;
    }

    table.add_row({std::to_string(k) + "x", exp::num(run.internal_cycles),
                   exp::num(run.tester_cycles(k)), exp::num(run.input_stall_cycles),
                   exp::num(run.shift_cycles),
                   exp::pct(run.improvement_percent(k))});
  }
  std::printf("\n%s\n", table.render().c_str());
  std::printf("hardware/software equivalence: PASS (all clock ratios)\n");
  std::printf("compression ratio (upper bound on improvement): %s\n",
              exp::pct(encoded.ratio_percent()).c_str());
  return 0;
}
