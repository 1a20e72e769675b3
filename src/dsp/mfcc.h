// MFCC front-end (paper §4.1: one of the acoustic feature choices that
// diversifies the parallel phone recognizers).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/filterbank.h"
#include "dsp/window.h"

namespace phonolid::dsp {

struct MfccConfig {
  double sample_rate = 8000.0;
  std::size_t frame_length = 200;   // 25 ms @ 8 kHz
  std::size_t frame_shift = 80;     // 10 ms @ 8 kHz
  std::size_t n_fft = 256;
  std::size_t num_filters = 23;
  std::size_t num_ceps = 13;        // including c0
  double low_hz = 100.0;
  double high_hz = 3800.0;
  float pre_emph = 0.97f;
  WindowType window = WindowType::kHamming;
  float log_floor = 1e-10f;
};

/// MFCC back end: one power spectrum (n_fft/2 + 1 bins, produced by
/// FeaturePipeline's spectral front) -> mel filterbank -> log -> DCT.
class MfccExtractor {
 public:
  /// Per-call working memory.  The extractor itself is immutable and shared
  /// across threads and streaming sessions; each caller owns one Workspace,
  /// so concurrent extraction (even two sessions on one thread) never
  /// touches shared or thread-local scratch.
  struct Workspace {
    std::vector<float> fbank;  // num_filters
  };

  explicit MfccExtractor(const MfccConfig& config = {});

  [[nodiscard]] const MfccConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t feature_dim() const noexcept { return config_.num_ceps; }

  [[nodiscard]] Workspace make_workspace() const;

  /// One power spectrum (size n_fft/2 + 1) -> one cepstral row (num_ceps).
  void cepstra(std::span<const float> power, Workspace& ws,
               std::span<float> out) const;

 private:
  MfccConfig config_;
  Filterbank filterbank_;
  Dct dct_;
};

}  // namespace phonolid::dsp
