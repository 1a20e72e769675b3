// GMM acoustic language recognition (the paper's reference [3]).
//
// The other major LR family the paper's introduction contrasts with
// phonotactic systems: one GMM per target language over SDC-augmented
// cepstral features, scored by average frame log-likelihood.  Included as
// a comparison baseline for the PPRVSM/DBA systems.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "acoustic/sdc.h"
#include "am/gmm.h"
#include "corpus/dataset.h"
#include "dsp/features.h"
#include "util/matrix.h"

namespace phonolid::acoustic {

struct GmmLrConfig {
  dsp::MfccConfig mfcc;
  SdcConfig sdc;
  am::GmmTrainConfig gmm;
  bool cmvn = true;
  std::uint64_t seed = 1;

  GmmLrConfig() { gmm.num_components = 16; }
};

class GmmLrSystem {
 public:
  /// Train one GMM per target language on the training set (parallel over
  /// languages).
  static GmmLrSystem train(const corpus::Dataset& train,
                           std::size_t num_languages,
                           const GmmLrConfig& config = {});

  [[nodiscard]] std::size_t num_languages() const noexcept {
    return models_.size();
  }

  /// Per-language average frame log-likelihoods for one utterance.
  void score(const corpus::Utterance& utt, std::span<float> out) const;

  /// Score a whole dataset: rows = utterances, cols = languages.
  [[nodiscard]] util::Matrix score_all(const corpus::Dataset& data) const;

 private:
  [[nodiscard]] util::Matrix features_of(
      const std::vector<float>& samples) const;

  GmmLrConfig config_;
  dsp::FeaturePipeline features_;  // MFCC statics [+ CMVN]
  std::vector<am::DiagGmm> models_;
};

}  // namespace phonolid::acoustic
