#include "acoustic/gmm_lr.h"

#include <stdexcept>

#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace phonolid::acoustic {

util::Matrix GmmLrSystem::features_of(const std::vector<float>& samples) const {
  return compute_sdc(features_.process(samples), config_.sdc);
}

GmmLrSystem GmmLrSystem::train(const corpus::Dataset& train,
                               std::size_t num_languages,
                               const GmmLrConfig& config) {
  if (train.empty() || num_languages == 0) {
    throw std::invalid_argument("GmmLrSystem::train: bad inputs");
  }
  GmmLrSystem system;
  system.config_ = config;
  dsp::FeaturePipelineConfig fcfg;  // MFCC statics, per-utterance CMVN
  fcfg.mfcc = config.mfcc;
  fcfg.deltas = false;
  fcfg.cmvn = config.cmvn;
  system.features_ = dsp::FeaturePipeline(fcfg);
  system.models_.resize(num_languages);

  // Pool SDC frames per language.
  std::vector<util::Matrix> frames_per_lang(num_languages);
  {
    // First pass: count frames; second: fill (avoids vector-of-vector
    // reallocation for what can be hundreds of thousands of frames).
    std::vector<std::size_t> frame_count(num_languages, 0);
    std::vector<util::Matrix> features(train.size());
    util::parallel_for(0, train.size(), [&](std::size_t i) {
      features[i] = system.features_of(train[i].samples);
    });
    for (std::size_t i = 0; i < train.size(); ++i) {
      const auto lang = static_cast<std::size_t>(train[i].language);
      if (train[i].language < 0 || lang >= num_languages) {
        throw std::invalid_argument("GmmLrSystem::train: bad label");
      }
      frame_count[lang] += features[i].rows();
    }
    const std::size_t dim = sdc_dim(config.sdc);
    for (std::size_t l = 0; l < num_languages; ++l) {
      frames_per_lang[l].resize(frame_count[l], dim);
    }
    std::vector<std::size_t> cursor(num_languages, 0);
    for (std::size_t i = 0; i < train.size(); ++i) {
      const auto lang = static_cast<std::size_t>(train[i].language);
      for (std::size_t t = 0; t < features[i].rows(); ++t) {
        auto src = features[i].row(t);
        std::copy(src.begin(), src.end(),
                  frames_per_lang[lang].row(cursor[lang]++).begin());
      }
    }
  }

  util::parallel_for(0, num_languages, [&](std::size_t l) {
    if (frames_per_lang[l].rows() == 0) {
      throw std::invalid_argument("GmmLrSystem::train: language " +
                                  std::to_string(l) + " has no data");
    }
    am::GmmTrainConfig gmm_cfg = config.gmm;
    gmm_cfg.seed = util::derive_stream(config.seed, 0xAC00 + l);
    system.models_[l].train(frames_per_lang[l], gmm_cfg);
  });
  PHONOLID_INFO("acoustic") << "trained GMM-LR: " << num_languages
                            << " languages, " << config.gmm.num_components
                            << " components, dim " << sdc_dim(config.sdc);
  return system;
}

void GmmLrSystem::score(const corpus::Utterance& utt,
                        std::span<float> out) const {
  if (out.size() != models_.size()) {
    throw std::invalid_argument("GmmLrSystem::score: bad output span");
  }
  const util::Matrix feats = features_of(utt.samples);
  for (std::size_t l = 0; l < models_.size(); ++l) {
    out[l] = static_cast<float>(models_[l].average_log_likelihood(feats));
  }
}

util::Matrix GmmLrSystem::score_all(const corpus::Dataset& data) const {
  util::Matrix scores(data.size(), models_.size());
  util::parallel_for(0, data.size(), [&](std::size_t i) {
    score(data[i], scores.row(i));
  });
  return scores;
}

}  // namespace phonolid::acoustic
