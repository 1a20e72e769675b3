// GMM-UBM acoustic language recognition with MAP adaptation.
//
// The stronger classical acoustic-LR recipe (Reynolds-style): one
// universal background model (UBM) trained on all languages pooled, then
// per-language models derived by MAP adaptation of the UBM means.  Scoring
// is the average-frame log-likelihood ratio against the UBM, which
// normalises away channel/speaker effects that a plain per-language GMM
// (acoustic/gmm_lr.h) absorbs into its likelihoods.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "acoustic/sdc.h"
#include "am/gmm.h"
#include "corpus/dataset.h"
#include "dsp/features.h"
#include "util/matrix.h"

namespace phonolid::acoustic {

struct UbmMapConfig {
  dsp::MfccConfig mfcc;
  SdcConfig sdc;
  std::size_t ubm_components = 32;
  std::size_t ubm_em_iters = 8;
  /// MAP relevance factor (Reynolds' tau); larger = stay closer to the UBM.
  double relevance = 16.0;
  /// Subsample cap on UBM training frames (0 = use everything).
  std::size_t max_ubm_frames = 60000;
  bool cmvn = true;
  std::uint64_t seed = 1;
};

class UbmLrSystem {
 public:
  /// Trains the UBM on pooled frames, then MAP-adapts one model per
  /// language.
  static UbmLrSystem train(const corpus::Dataset& train,
                           std::size_t num_languages,
                           const UbmMapConfig& config = {});

  [[nodiscard]] std::size_t num_languages() const noexcept {
    return adapted_means_.size();
  }
  [[nodiscard]] const am::DiagGmm& ubm() const noexcept { return ubm_; }

  /// Per-language average-frame log-likelihood ratios vs the UBM.
  void score(const corpus::Utterance& utt, std::span<float> out) const;
  [[nodiscard]] util::Matrix score_all(const corpus::Dataset& data) const;

 private:
  [[nodiscard]] util::Matrix features_of(
      const std::vector<float>& samples) const;
  /// Packs every language's adapted components (shared UBM weights and
  /// variances) into one GEMM scorer; built eagerly at the end of train().
  void rebuild_adapted_scorer();

  UbmMapConfig config_;
  dsp::FeaturePipeline features_;  // MFCC statics [+ CMVN]
  am::DiagGmm ubm_;
  /// adapted_means_[l] : components x dim matrix of MAP-adapted means.
  std::vector<util::Matrix> adapted_means_;
  la::BatchedGaussians adapted_all_;      // num_languages * m components
  std::vector<std::size_t> lang_seg_;     // per-language component offsets
};

}  // namespace phonolid::acoustic
