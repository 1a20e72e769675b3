// Incremental front-end feature extraction for streaming sessions.
//
// StreamingFeatures accepts raw audio in arbitrary chunks and emits
// *pre-CMVN* feature rows (statics [+ deltas + delta-deltas]) exactly as the
// batch FeaturePipeline would compute them — bit-identical, because
// FeaturePipeline::process is itself a single-chunk pass through this class.
// This class is the spectral front's pre-emphasis and framing (whole-signal
// pre-emphasis, frame t at t * frame_shift); each frame then goes through
// FeaturePipeline::extract_frame (window, FFT power spectrum, back end).
// Per-utterance CMVN is deliberately *not* applied here: it depends on
// whole-utterance statistics, so normalisation belongs to whoever ends the
// utterance (core::StreamingSession at finalize, FeaturePipeline at the end
// of process()).
//
// Internal state is bounded by the lookahead, not the utterance:
//   - an emphasized-sample buffer holding at most one frame plus one chunk
//     (consumed samples are dropped as frames complete),
//   - delta/delta-delta regression rings of 2*delta_window + 1 rows each
//     (a row is emitted once its +delta_window lookahead exists; the tail
//     is flushed with batch-identical edge clamping at finish()).
// The emitted rows themselves accumulate here because every downstream
// consumer (CMVN, decoder lattice) is per-utterance O(T) anyway.
//
// All scratch (one FeaturePipeline::Workspace, rings) is owned by the
// object: one StreamingFeatures per session, no thread_local, so
// sessions are independently usable from any mix of threads.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/features.h"
#include "util/matrix.h"

namespace phonolid::dsp {

class StreamingFeatures {
 public:
  /// `pipeline` must outlive the session (it owns the immutable window,
  /// FFT and back-end tables; this object owns all mutable state).
  explicit StreamingFeatures(const FeaturePipeline& pipeline);

  /// Feed the next chunk of raw samples; completes and emits any feature
  /// rows whose lookahead is now available.  Throws std::logic_error after
  /// finish().
  void push(std::span<const float> samples);

  /// Flush the delta lookahead tail with end-of-utterance clamping.  No
  /// further push() is accepted.  Idempotent.
  void finish();

  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] std::size_t samples_pushed() const noexcept {
    return total_samples_;
  }

  /// Emitted (pre-CMVN) rows so far, in frame order.
  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_done_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::span<const float> row(std::size_t t) const {
    return {out_.data() + t * dim_, dim_};
  }

  /// Copy of rows [0, end) — the pre-CMVN feature prefix (checkpoints).
  [[nodiscard]] util::Matrix prefix(std::size_t end) const;

  /// All emitted rows as a matrix; requires finish() first.
  [[nodiscard]] util::Matrix take();

 private:
  void extract_ready_frames();
  void cascade(bool flush);
  void on_static_row(std::span<const float> statics);
  void regress(const std::vector<float>& ring, std::size_t t, std::size_t last,
               std::span<float> out) const;
  void emit_full_row(std::size_t u, std::size_t last);
  [[nodiscard]] std::span<const float> ring_row(const std::vector<float>& ring,
                                                std::size_t index) const {
    return {ring.data() + (index % ring_rows_) * base_dim_, base_dim_};
  }
  [[nodiscard]] std::span<float> ring_slot(std::vector<float>& ring,
                                           std::size_t index) {
    return {ring.data() + (index % ring_rows_) * base_dim_, base_dim_};
  }

  const FeaturePipeline& pipeline_;
  std::size_t base_dim_ = 0;   // cepstra per frame
  std::size_t dim_ = 0;        // emitted row width (3x with deltas)
  bool deltas_on_ = false;
  std::ptrdiff_t delta_window_ = 0;  // 0 = deltas disabled
  float inv_denom_ = 0.0f;     // delta regression normaliser

  FeaturePipeline::Workspace ws_;

  // Pre-emphasis carry + bounded sample buffer.
  bool have_prev_sample_ = false;
  float prev_raw_sample_ = 0.0f;
  std::vector<float> buf_;        // emphasized, starting at buf_start_
  std::size_t buf_start_ = 0;     // global index of buf_[0]
  std::size_t total_samples_ = 0;
  std::size_t next_frame_ = 0;

  // Delta cascade state.
  std::size_t ring_rows_ = 1;     // 2*delta_window + 1
  std::vector<float> statics_ring_;
  std::vector<float> deltas_ring_;
  std::vector<float> static_tmp_;
  std::vector<float> delta_tmp_;
  std::vector<float> ddelta_tmp_;
  std::size_t statics_done_ = 0;
  std::size_t deltas_done_ = 0;
  std::size_t rows_done_ = 0;     // == ddeltas done when deltas are on

  std::vector<float> out_;        // rows_done_ x dim_, row-major
  bool finished_ = false;
};

}  // namespace phonolid::dsp
