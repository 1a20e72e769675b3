// The feature pipeline the acoustic front-ends consume (paper §4.1:
// "13-dimensional PLP features plus their first order and second order
// derivatives ... normalized to have zero mean and unit variance"):
//
//   spectral front (pre-emphasis -> framing -> window -> FFT power spectrum)
//     -> back end (MFCC or PLP cepstra)
//     -> deltas + delta-deltas -> per-utterance CMVN.
//
// The spectral front exists once: FeaturePipeline owns the window table and
// the Fft, StreamingFeatures does the pre-emphasis and framing, and the two
// back ends only ever see a power spectrum.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "dsp/mfcc.h"
#include "dsp/plp.h"
#include "util/matrix.h"

namespace phonolid::dsp {

/// Appends delta and delta-delta columns: D -> 3D.
/// Deltas use the standard regression formula with window `delta_window`.
[[nodiscard]] util::Matrix add_deltas(const util::Matrix& features,
                                      std::size_t delta_window = 2);

/// In-place cepstral mean subtraction (always) and variance normalisation
/// (if `normalize_variance`), computed per utterance over frames.
void cmvn_inplace(util::Matrix& features, bool normalize_variance = true);

enum class FeatureKind { kMfcc, kPlp };

struct FeaturePipelineConfig {
  FeatureKind kind = FeatureKind::kMfcc;
  MfccConfig mfcc;
  PlpConfig plp;
  bool deltas = true;
  std::size_t delta_window = 2;
  bool cmvn = true;
  bool cmvn_variance = true;
};

/// Pre-emphasis, framing, window and FFT size of the active config (MFCC
/// and PLP configs each carry their own copy).
struct SpectralFront {
  std::size_t frame_length = 0;
  std::size_t frame_shift = 0;
  std::size_t n_fft = 0;
  float pre_emph = 0.0f;
  WindowType window = WindowType::kHamming;
};

/// Raw signal -> normalised feature matrix (frames x dim).
class FeaturePipeline {
 public:
  /// Per-frame working memory for extract_frame(); the pipeline is
  /// immutable and shared, so every caller/session owns one Workspace.
  struct Workspace {
    std::vector<float> frame;                 // n_fft, zero-padded
    std::vector<float> power;                 // n_fft/2 + 1
    std::vector<std::complex<float>> fft;     // n_fft transform scratch
    MfccExtractor::Workspace mfcc;            // back-end scratch: only the
    PlpExtractor::Workspace plp;              // active kind's is sized
  };

  /// Throws std::invalid_argument unless the active config has frame
  /// length > 0, frame shift > 0 and frame length <= n_fft (a power of two).
  explicit FeaturePipeline(const FeaturePipelineConfig& config = {});

  [[nodiscard]] const FeaturePipelineConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const SpectralFront& front() const noexcept { return front_; }
  /// Cepstra per frame, before deltas.
  [[nodiscard]] std::size_t static_dim() const noexcept;
  /// Emitted row width: static_dim(), times 3 with deltas.
  [[nodiscard]] std::size_t feature_dim() const noexcept;

  [[nodiscard]] Workspace make_workspace() const;

  /// One frame of *pre-emphasized* samples (size frame_length) -> window,
  /// zero-pad to n_fft, power spectrum -> back end -> one static row
  /// (size static_dim()).
  void extract_frame(std::span<const float> samples, Workspace& ws,
                     std::span<float> out) const;

  /// Software energy-model cost of one fully post-processed frame
  /// (extraction + deltas + CMVN terms); deterministic for a given config.
  [[nodiscard]] double flops_per_frame() const noexcept;

  /// Batch entry point: a single-chunk pass through the streaming extractor
  /// (dsp::StreamingFeatures) followed by per-utterance CMVN.
  [[nodiscard]] util::Matrix process(std::span<const float> signal) const;

 private:
  FeaturePipelineConfig config_;
  SpectralFront front_;
  std::vector<float> window_;  // frame_length coefficients
  Fft fft_;
  std::unique_ptr<MfccExtractor> mfcc_;  // exactly one back end is set
  std::unique_ptr<PlpExtractor> plp_;
};

}  // namespace phonolid::dsp
