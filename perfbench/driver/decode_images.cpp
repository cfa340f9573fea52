// decode_images: the raw-decode path. One thread loops over 36 containers
// built before set-up (v2 fixed-width, v2 variable-width and v3 auto@4096
// images of every Table 3 circuit). One op is one container: strict read
// (header and CRC checks), codec::decode_image, and the Fig. 5 cycle model
// over the matching encoder result.
//
// Each cycle (all 36 containers once) and each set-up runs pinned to the
// next CPU the process may use. On a host whose CPUs are contended
// unevenly, a single thread's speed otherwise depends on where the
// scheduler happens to put it for the whole run; rotating spreads the
// cycles and the timed set-ups evenly over all CPUs.

#include <sched.h>

#include <sstream>

#include "codec/select.h"
#include "common.h"
#include "hw/decompressor.h"
#include "lzw/encoder.h"
#include "lzw/stream_io.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kChunkTrits = 4096;

class DecodeImages final : public Workload {
 public:
  DecodeImages(const Inputs& inputs, const WorkloadConfig& config) : rng_(config.seed) {
    // Input generation (untimed): encode every circuit three ways.
    for (const Circuit& c : inputs.circuits) {
      for (const bool variable : {false, true}) {
        tdc::lzw::LzwConfig lzw = c.config;
        lzw.variable_width = variable;
        encoded_.push_back(tdc::lzw::Encoder(lzw).encode(c.stream));
        std::ostringstream out(std::ios::binary);
        tdc::lzw::write_image(out, encoded_.back());
        add_image(std::move(out).str(), c.stream.size(), encoded_.size() - 1, false);
      }
      tdc::Result<tdc::codec::SelectOptions> mode = tdc::codec::parse_codec_mode("auto");
      tdc::codec::SelectOptions options = std::move(mode).take();
      options.lzw = c.config;
      options.chunk_trits = kChunkTrits;
      tdc::Result<tdc::codec::EncodedChunks> chunks =
          tdc::codec::encode_chunks(c.stream, options);
      if (!chunks.ok()) throw SetupError("encode_chunks: " + chunks.error().describe());
      std::ostringstream out(std::ios::binary);
      tdc::lzw::write_image_v3(out, c.config, chunks.value().original_bits, kChunkTrits,
                               chunks.value().records);
      // A v3 image has no single LZW code stream; the cycle model runs on
      // the circuit's fixed-width encoder result.
      add_image(std::move(out).str(), c.stream.size(), encoded_.size() - 2, true);
    }
    order_.resize(images_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    pos_ = order_.size();
    CPU_ZERO(&allowed_);
    sched_getaffinity(0, sizeof allowed_, &allowed_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }

  std::size_t cycle_ops() const override { return images_.size(); }

  void setup() override {
    pin_next_cpu();
    models_.clear();
    for (const tdc::lzw::EncodeResult& e : encoded_) {
      tdc::hw::HwConfig hw;
      hw.lzw = e.config;
      models_.emplace_back(hw);
    }
    for (Image& image : images_) {
      Decoded d;
      if (const std::string error = decode(image, d); !error.empty()) {
        throw SetupError("warm-up decode: " + error);
      }
      if (!image.reference) {
        image.reference = std::make_unique<Decoded>(std::move(d));
      } else if (const std::string error = check(image, d); !error.empty()) {
        throw SetupError("warm-up decode differs between set-ups: " + error);
      }
    }
    // The model's scan stream must equal the decoder's output for the LZW
    // image it was run on (v3 images reuse the fixed-width result).
    for (const Image& image : images_) {
      if (image.reference->hw_bits != images_[lzw_image(image)].reference->stream) {
        throw SetupError("cycle-model scan stream differs from the decoded stream");
      }
    }
  }

  void teardown() override {
    models_.clear();
    sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

  OpResult op(unsigned) override {
    if (pos_ == order_.size()) {
      shuffle(order_, rng_);
      pos_ = 0;
      pin_next_cpu();
    }
    const Image& image = images_[order_[pos_++]];
    OpResult r;
    r.trits = image.trits;
    if (image.v3) v3_trits_ += static_cast<double>(image.trits);
    Decoded d;
    r.error = decode(image, d);
    if (r.error.empty()) {
      tdc::obs::TraceSpan span("bench.check");
      r.error = check(image, d);
    }
    r.ok = r.error.empty();
    return r;
  }

  Counters counters() override { return {{"work.codec.decode_records", v3_trits_}}; }

  void report(Report& out, const Counters&, std::uint64_t) override {
    double cycles = 0.0, trits = 0.0;
    for (const Image& image : images_) {
      out.container_bytes += image.bytes.size();
      out.container_trits += image.trits;
      cycles += static_cast<double>(image.reference->cycles);
      trits += static_cast<double>(image.trits);
    }
    out.layer["hw.model.cycles_per_trit"] = cycles / trits;
  }

 private:
  struct Decoded {
    tdc::bits::TritVector stream;
    tdc::bits::TritVector hw_bits;
    std::uint64_t cycles = 0;
  };
  struct Image {
    std::string bytes;
    std::uint64_t trits = 0;
    std::size_t encoded = 0;  ///< index into encoded_/models_
    bool v3 = false;
    std::unique_ptr<Decoded> reference;  ///< first set-up's results
  };

  /// Best effort: an unpinned cycle or set-up is still valid.
  void pin_next_cpu() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[pinned_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  void add_image(std::string bytes, std::uint64_t trits, std::size_t encoded, bool v3) {
    Image image;
    image.bytes = std::move(bytes);
    image.trits = trits;
    image.encoded = encoded;
    image.v3 = v3;
    images_.push_back(std::move(image));
  }

  /// The v2 image whose encoder result `image` runs the cycle model on.
  std::size_t lzw_image(const Image& image) const {
    for (std::size_t i = 0; i < images_.size(); ++i) {
      if (!images_[i].v3 && images_[i].encoded == image.encoded) return i;
    }
    return 0;
  }

  /// Read, decode and model one image; returns an error message or "".
  std::string decode(const Image& image, Decoded& d) const {
    tdc::Result<tdc::lzw::CompressedImage> read = [&] {
      tdc::obs::TraceSpan span("bench.read_image");
      span.arg("bytes", static_cast<std::uint64_t>(image.bytes.size()));
      std::istringstream in(image.bytes, std::ios::binary);
      return tdc::lzw::try_read_image(in);
    }();
    if (!read.ok()) return "read: " + read.error().describe();
    tdc::Result<tdc::bits::TritVector> decoded = [&] {
      tdc::obs::TraceSpan span("bench.decode_image");
      span.arg("trits", image.trits);
      return tdc::codec::decode_image(read.value());
    }();
    if (!decoded.ok()) return "decode: " + decoded.error().describe();
    tdc::Result<tdc::hw::HwRunResult> run = [&] {
      tdc::obs::TraceSpan span("bench.hw_model");
      span.arg("trits", image.trits);
      return models_[image.encoded].try_run(encoded_[image.encoded]);
    }();
    if (!run.ok()) return "cycle model: " + run.error().describe();
    d.stream = std::move(decoded).take();
    d.hw_bits = std::move(run.value().scan_bits);
    d.cycles = run.value().internal_cycles;
    return {};
  }

  std::string check(const Image& image, const Decoded& d) const {
    const Decoded& want = *image.reference;
    if (d.stream != want.stream) return "decoded stream differs from set-up";
    if (d.hw_bits != images_[lzw_image(image)].reference->stream) {
      return "cycle-model scan bits differ from the decoded stream";
    }
    if (d.cycles != want.cycles) return "internal_cycles differ from set-up";
    return {};
  }

  std::vector<tdc::lzw::EncodeResult> encoded_;
  std::vector<tdc::hw::DecompressorModel> models_;
  std::vector<Image> images_;
  SplitMix rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t pinned_ = 0;  ///< cycles and set-ups pinned so far
  double v3_trits_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_decode_images(const Inputs& inputs,
                                             const WorkloadConfig& config) {
  return std::make_unique<DecodeImages>(inputs, config);
}

}  // namespace perfbench
