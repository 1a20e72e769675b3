#include "dsp/streaming_features.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace phonolid::dsp {

StreamingFeatures::StreamingFeatures(const FeaturePipeline& pipeline)
    : pipeline_(pipeline),
      base_dim_(pipeline.static_dim()),
      ws_(pipeline.make_workspace()) {
  const auto& cfg = pipeline.config();
  deltas_on_ = cfg.deltas;
  if (deltas_on_) {
    delta_window_ = static_cast<std::ptrdiff_t>(cfg.delta_window);
    dim_ = base_dim_ * 3;
    ring_rows_ = 2 * cfg.delta_window + 1;
    statics_ring_.resize(ring_rows_ * base_dim_);
    deltas_ring_.resize(ring_rows_ * base_dim_);
    delta_tmp_.resize(base_dim_);
    ddelta_tmp_.resize(base_dim_);
    // Same normaliser arithmetic as add_deltas (double sum, float inverse).
    double denom = 0.0;
    for (std::ptrdiff_t k = 1; k <= delta_window_; ++k) {
      denom += 2.0 * static_cast<double>(k * k);
    }
    inv_denom_ = static_cast<float>(1.0 / denom);
  } else {
    dim_ = base_dim_;
  }
  static_tmp_.resize(base_dim_);
}

void StreamingFeatures::push(std::span<const float> samples) {
  if (finished_) {
    throw std::logic_error("StreamingFeatures: push() after finish()");
  }
  if (samples.empty()) return;
  // Streaming pre-emphasis: identical to pre-emphasis of the whole signal
  // (y[0] = x[0]*(1-c), then y[i] = x[i] - c*x[i-1] with a one-sample carry
  // across chunk boundaries).
  const float pre_emph = pipeline_.front().pre_emph;
  const std::size_t old = buf_.size();
  buf_.resize(old + samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const float v = samples[i];
    float e;
    if (!have_prev_sample_) {
      e = v * (1.0f - pre_emph);
      have_prev_sample_ = true;
    } else {
      e = v - pre_emph * prev_raw_sample_;
    }
    prev_raw_sample_ = v;
    buf_[old + i] = e;
  }
  total_samples_ += samples.size();
  extract_ready_frames();
}

void StreamingFeatures::extract_ready_frames() {
  const std::size_t length = pipeline_.front().frame_length;
  const std::size_t shift = pipeline_.front().frame_shift;
  while (next_frame_ * shift + length <= total_samples_) {
    const std::size_t offset = next_frame_ * shift - buf_start_;
    pipeline_.extract_frame({buf_.data() + offset, length}, ws_, static_tmp_);
    ++next_frame_;
    on_static_row(static_tmp_);
  }
  // Drop samples no future frame can touch; the buffer stays bounded by
  // frame_length + the largest chunk ever pushed.
  const std::size_t keep_from = std::min(next_frame_ * shift, total_samples_);
  if (keep_from > buf_start_) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(keep_from - buf_start_));
    buf_start_ = keep_from;
  }
}

void StreamingFeatures::on_static_row(std::span<const float> statics) {
  if (!deltas_on_) {
    out_.insert(out_.end(), statics.begin(), statics.end());
    ++statics_done_;
    ++rows_done_;
    return;
  }
  const auto slot = ring_slot(statics_ring_, statics_done_);
  std::copy(statics.begin(), statics.end(), slot.begin());
  ++statics_done_;
  // Cascade immediately per static row so each ring only ever needs its
  // 2*delta_window + 1 most recent rows.
  cascade(/*flush=*/false);
}

void StreamingFeatures::regress(const std::vector<float>& ring, std::size_t t,
                                std::size_t last, std::span<float> out) const {
  // Element-for-element the same operation sequence as add_deltas'
  // compute_delta (k ascending, float accumulate, one final multiply), so
  // streamed rows are bit-identical to the batch matrix.
  for (std::size_t d = 0; d < base_dim_; ++d) out[d] = 0.0f;
  for (std::ptrdiff_t k = 1; k <= delta_window_; ++k) {
    const auto tt = static_cast<std::ptrdiff_t>(t);
    const std::size_t fwd = static_cast<std::size_t>(
        std::min(tt + k, static_cast<std::ptrdiff_t>(last)));
    const std::size_t bwd =
        static_cast<std::size_t>(std::max(tt - k, std::ptrdiff_t{0}));
    const auto f = ring_row(ring, fwd);
    const auto b = ring_row(ring, bwd);
    const float fk = static_cast<float>(k);
    for (std::size_t d = 0; d < base_dim_; ++d) {
      out[d] += fk * (f[d] - b[d]);
    }
  }
  for (std::size_t d = 0; d < base_dim_; ++d) out[d] *= inv_denom_;
}

void StreamingFeatures::emit_full_row(std::size_t u, std::size_t last) {
  regress(deltas_ring_, u, last, ddelta_tmp_);
  const auto statics = ring_row(statics_ring_, u);
  const auto deltas = ring_row(deltas_ring_, u);
  out_.insert(out_.end(), statics.begin(), statics.end());
  out_.insert(out_.end(), deltas.begin(), deltas.end());
  out_.insert(out_.end(), ddelta_tmp_.begin(), ddelta_tmp_.end());
  ++rows_done_;
}

void StreamingFeatures::cascade(bool flush) {
  if (!deltas_on_) return;
  const std::size_t w = static_cast<std::size_t>(delta_window_);
  // Deltas: frame t is computable once static t+w exists (no forward clamp
  // fires before then); at flush the remaining tail clamps at the now-known
  // last frame, exactly like the batch edge handling.
  while (deltas_done_ < statics_done_ &&
         (flush || deltas_done_ + w < statics_done_)) {
    const std::size_t t = deltas_done_;
    regress(statics_ring_, t, statics_done_ - 1, delta_tmp_);
    const auto slot = ring_slot(deltas_ring_, t);
    std::copy(delta_tmp_.begin(), delta_tmp_.end(), slot.begin());
    ++deltas_done_;
    // Delta-deltas ride the same rule one level down.
    while (rows_done_ + w < deltas_done_) {
      emit_full_row(rows_done_, deltas_done_ - 1);
    }
  }
  if (flush) {
    while (rows_done_ < deltas_done_) {
      emit_full_row(rows_done_, deltas_done_ - 1);
    }
  }
}

void StreamingFeatures::finish() {
  if (finished_) return;
  cascade(/*flush=*/true);
  buf_.clear();
  buf_.shrink_to_fit();
  finished_ = true;
}

util::Matrix StreamingFeatures::prefix(std::size_t end) const {
  assert(end <= rows_done_);
  util::Matrix m(end, dim_);
  std::copy(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(end * dim_),
            m.data());
  return m;
}

util::Matrix StreamingFeatures::take() {
  if (!finished_) {
    throw std::logic_error("StreamingFeatures: take() before finish()");
  }
  util::Matrix m(rows_done_, dim_);
  std::copy(out_.begin(), out_.end(), m.data());
  return m;
}

}  // namespace phonolid::dsp
