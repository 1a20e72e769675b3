#include "dsp/features.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "dsp/streaming_features.h"

#include "obs/energy.h"

namespace phonolid::dsp {

util::Matrix add_deltas(const util::Matrix& features, std::size_t delta_window) {
  const std::size_t frames = features.rows();
  const std::size_t dim = features.cols();
  util::Matrix out(frames, dim * 3);
  if (frames == 0) return out;

  const auto w = static_cast<std::ptrdiff_t>(delta_window);
  double denom = 0.0;
  for (std::ptrdiff_t k = 1; k <= w; ++k) denom += 2.0 * static_cast<double>(k * k);
  const float inv_denom = static_cast<float>(1.0 / denom);

  // value(t) clamped at utterance edges, applied to an arbitrary source.
  const auto compute_delta = [&](const auto& src, std::size_t t, std::size_t d) {
    float acc = 0.0f;
    for (std::ptrdiff_t k = 1; k <= w; ++k) {
      const auto tt = static_cast<std::ptrdiff_t>(t);
      const auto last = static_cast<std::ptrdiff_t>(frames) - 1;
      const std::size_t fwd = static_cast<std::size_t>(std::min(tt + k, last));
      const std::size_t bwd = static_cast<std::size_t>(std::max(tt - k, std::ptrdiff_t{0}));
      acc += static_cast<float>(k) * (src(fwd, d) - src(bwd, d));
    }
    return acc * inv_denom;
  };

  // Statics.
  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t d = 0; d < dim; ++d) out(t, d) = features(t, d);
  }
  // Deltas over the statics.
  const auto statics = [&](std::size_t t, std::size_t d) { return features(t, d); };
  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t d = 0; d < dim; ++d) {
      out(t, dim + d) = compute_delta(statics, t, d);
    }
  }
  // Delta-deltas over the deltas just written.
  const auto deltas = [&](std::size_t t, std::size_t d) { return out(t, dim + d); };
  for (std::size_t t = 0; t < frames; ++t) {
    for (std::size_t d = 0; d < dim; ++d) {
      out(t, 2 * dim + d) = compute_delta(deltas, t, d);
    }
  }
  return out;
}

void cmvn_inplace(util::Matrix& features, bool normalize_variance) {
  const std::size_t frames = features.rows();
  const std::size_t dim = features.cols();
  if (frames == 0) return;
  for (std::size_t d = 0; d < dim; ++d) {
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t t = 0; t < frames; ++t) {
      const double v = features(t, d);
      sum += v;
      sum2 += v * v;
    }
    const double m = sum / static_cast<double>(frames);
    double inv_std = 1.0;
    if (normalize_variance) {
      const double var = sum2 / static_cast<double>(frames) - m * m;
      inv_std = 1.0 / std::sqrt(std::max(var, 1e-10));
    }
    for (std::size_t t = 0; t < frames; ++t) {
      features(t, d) =
          static_cast<float>((features(t, d) - m) * inv_std);
    }
  }
}

namespace {

template <class Config>
SpectralFront front_of(const Config& c) {
  return {c.frame_length, c.frame_shift, c.n_fft, c.pre_emph, c.window};
}

SpectralFront checked_front(const FeaturePipelineConfig& config) {
  const SpectralFront f = config.kind == FeatureKind::kMfcc
                              ? front_of(config.mfcc)
                              : front_of(config.plp);
  // A zero shift would never advance StreamingFeatures' frame loop.
  if (f.frame_length == 0 || f.frame_shift == 0) {
    throw std::invalid_argument("frame length/shift must be positive");
  }
  if (f.frame_length > f.n_fft) {
    throw std::invalid_argument("frame_length must be <= n_fft");
  }
  return f;
}

}  // namespace

FeaturePipeline::FeaturePipeline(const FeaturePipelineConfig& config)
    : config_(config),
      front_(checked_front(config)),
      window_(make_window(front_.window, front_.frame_length)),
      fft_(front_.n_fft) {
  if (config_.kind == FeatureKind::kMfcc) {
    mfcc_ = std::make_unique<MfccExtractor>(config_.mfcc);
  } else {
    plp_ = std::make_unique<PlpExtractor>(config_.plp);
  }
}

std::size_t FeaturePipeline::static_dim() const noexcept {
  return mfcc_ ? mfcc_->feature_dim() : plp_->feature_dim();
}

std::size_t FeaturePipeline::feature_dim() const noexcept {
  return config_.deltas ? static_dim() * 3 : static_dim();
}

FeaturePipeline::Workspace FeaturePipeline::make_workspace() const {
  Workspace ws;
  ws.frame.assign(front_.n_fft, 0.0f);
  ws.power.resize(front_.n_fft / 2 + 1);
  ws.fft.resize(front_.n_fft);
  if (mfcc_) {
    ws.mfcc = mfcc_->make_workspace();
  } else {
    ws.plp = plp_->make_workspace();
  }
  return ws;
}

void FeaturePipeline::extract_frame(std::span<const float> samples,
                                    Workspace& ws, std::span<float> out) const {
  assert(samples.size() == front_.frame_length);
  // The zero pad never changes, but dropping this per-frame fill measured
  // ~7% slower per MFCC frame; keep "zero-fill, then window".
  std::fill(ws.frame.begin(), ws.frame.end(), 0.0f);
  for (std::size_t i = 0; i < front_.frame_length; ++i) {
    ws.frame[i] = samples[i] * window_[i];
  }
  fft_.power_spectrum(ws.frame, ws.power, ws.fft);
  if (mfcc_) {
    mfcc_->cepstra(ws.power, ws.mfcc, out);
  } else {
    plp_->cepstra(ws.power, ws.plp, out);
  }
}

double FeaturePipeline::flops_per_frame() const noexcept {
  // Software energy model: per-frame FFT (~5 N log2 N), filterbank
  // (~2 * filters * N/2), and cepstral projection (~2 * ceps * filters),
  // plus delta regression and CMVN terms.  Depends only on the config, so
  // the charge is deterministic for a given input.
  const double n_fft = static_cast<double>(front_.n_fft);
  const double n_filters = static_cast<double>(
      mfcc_ ? config_.mfcc.num_filters : config_.plp.num_filters);
  const double n_ceps = static_cast<double>(static_dim());
  double per_frame = 5.0 * n_fft * std::log2(n_fft) +
                     n_filters * n_fft + 2.0 * n_ceps * n_filters;
  const double cols = static_cast<double>(feature_dim());
  if (config_.deltas) {
    per_frame += 4.0 * static_cast<double>(config_.delta_window) * cols;
  }
  if (config_.cmvn) per_frame += 4.0 * cols;
  return per_frame;
}

util::Matrix FeaturePipeline::process(std::span<const float> signal) const {
  // One code path with the streaming front end: batch is a single chunk.
  StreamingFeatures stream(*this);
  stream.push(signal);
  stream.finish();
  util::Matrix feats = stream.take();
  if (config_.cmvn) cmvn_inplace(feats, config_.cmvn_variance);
  obs::Energy::charge_flops(static_cast<double>(feats.rows()) *
                            flops_per_frame());
  return feats;
}

}  // namespace phonolid::dsp
