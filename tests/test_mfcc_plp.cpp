#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#include "dsp/features.h"
#include "dsp/fft.h"
#include "dsp/mfcc.h"
#include "dsp/plp.h"
#include "util/rng.h"

namespace phonolid::dsp {
namespace {

std::vector<float> make_tone(double freq, double seconds, double sr,
                             double noise = 0.0, std::uint64_t seed = 1) {
  util::Rng rng(seed);
  std::vector<float> x(static_cast<std::size_t>(seconds * sr));
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = static_cast<float>(
        std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(t) / sr) +
        noise * rng.gaussian());
  }
  return x;
}

FeaturePipelineConfig statics_config(FeatureKind kind) {
  FeaturePipelineConfig cfg;
  cfg.kind = kind;
  cfg.deltas = false;
  cfg.cmvn = false;
  return cfg;
}

/// Un-normalised static cepstra, one row per frame.
util::Matrix statics(FeatureKind kind, std::span<const float> x) {
  return FeaturePipeline(statics_config(kind)).process(x);
}
util::Matrix mfcc_statics(std::span<const float> x) {
  return statics(FeatureKind::kMfcc, x);
}
util::Matrix plp_statics(std::span<const float> x) {
  return statics(FeatureKind::kPlp, x);
}

/// The spectral front written out longhand, sharing nothing with
/// FeaturePipeline or StreamingFeatures but the Fft and the back end:
/// whole-signal pre-emphasis, frame t at t * frame_shift, window, zero-pad
/// to n_fft, power spectrum, back end.
template <class BackEnd, class Config>
util::Matrix reference_statics(const Config& cfg, std::span<const float> x,
                               bool emphasize = true) {
  std::vector<float> y(x.begin(), x.end());
  if (emphasize && !y.empty()) {
    float prev = y[0];
    y[0] = y[0] * (1.0f - cfg.pre_emph);
    for (std::size_t i = 1; i < y.size(); ++i) {
      const float cur = y[i];
      y[i] = cur - cfg.pre_emph * prev;
      prev = cur;
    }
  }
  const BackEnd back_end(cfg);
  auto ws = back_end.make_workspace();
  const std::vector<float> window = make_window(cfg.window, cfg.frame_length);
  const Fft fft(cfg.n_fft);
  std::vector<float> frame(cfg.n_fft);
  std::vector<float> power(cfg.n_fft / 2 + 1);
  std::vector<std::complex<float>> scratch;
  const std::size_t frames =
      y.size() < cfg.frame_length
          ? 0
          : (y.size() - cfg.frame_length) / cfg.frame_shift + 1;
  util::Matrix out(frames, back_end.feature_dim());
  for (std::size_t t = 0; t < frames; ++t) {
    std::fill(frame.begin(), frame.end(), 0.0f);
    for (std::size_t i = 0; i < cfg.frame_length; ++i) {
      frame[i] = y[t * cfg.frame_shift + i] * window[i];
    }
    fft.power_spectrum(frame, power, scratch);
    back_end.cepstra(power, ws, out.row(t));
  }
  return out;
}

util::Matrix reference_statics(const FeaturePipelineConfig& cfg,
                               std::span<const float> x,
                               bool emphasize = true) {
  return cfg.kind == FeatureKind::kMfcc
             ? reference_statics<MfccExtractor>(cfg.mfcc, x, emphasize)
             : reference_statics<PlpExtractor>(cfg.plp, x, emphasize);
}

void expect_bit_identical(const util::Matrix& got, const util::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(std::equal(got.data(), got.data() + got.rows() * got.cols(),
                         want.data()));
}

TEST(FeaturePipeline, StaticsMatchReferenceFront) {
  // An odd length leaves a partial frame at the end; the non-default
  // geometry is set on the active config only, so the front must read it
  // from there.
  const auto x = make_tone(530.0, 0.37, 8000.0, 0.3, 7);
  for (auto kind : {FeatureKind::kMfcc, FeatureKind::kPlp}) {
    FeaturePipelineConfig cfg = statics_config(kind);
    expect_bit_identical(FeaturePipeline(cfg).process(x),
                         reference_statics(cfg, x));
    if (kind == FeatureKind::kMfcc) {
      cfg.mfcc.frame_length = 240;
      cfg.mfcc.frame_shift = 96;
      cfg.mfcc.n_fft = 512;
      cfg.mfcc.window = WindowType::kHann;
    } else {
      cfg.plp.frame_length = 240;
      cfg.plp.frame_shift = 96;
      cfg.plp.n_fft = 512;
      cfg.plp.pre_emph = 0.9f;
    }
    const auto got = FeaturePipeline(cfg).process(x);
    EXPECT_EQ(got.rows(), (x.size() - 240) / 96 + 1);
    expect_bit_identical(got, reference_statics(cfg, x));
  }
}

TEST(FeaturePipeline, DeltasMatchAddDeltas) {
  // StreamingFeatures' incremental regression must reproduce the batch
  // add_deltas matrix bit for bit, edge clamping included.
  const auto x = make_tone(410.0, 0.31, 8000.0, 0.2, 3);
  for (auto kind : {FeatureKind::kMfcc, FeatureKind::kPlp}) {
    for (std::size_t window : {1u, 2u, 3u}) {
      FeaturePipelineConfig cfg = statics_config(kind);
      cfg.deltas = true;
      cfg.delta_window = window;
      expect_bit_identical(FeaturePipeline(cfg).process(x),
                           add_deltas(statics(kind, x), window));
    }
  }
}

TEST(FeaturePipeline, FrameCountFormula) {
  // 200-sample frames every 80 samples: only fully contained frames count.
  const std::pair<std::size_t, std::size_t> cases[] = {
      {0, 0}, {199, 0}, {200, 1}, {279, 1}, {280, 2},
      {8000, (8000 - 200) / 80 + 1}};
  for (auto kind : {FeatureKind::kMfcc, FeatureKind::kPlp}) {
    const FeaturePipeline pipeline(statics_config(kind));
    for (const auto& [samples, frames] : cases) {
      const std::vector<float> x(samples, 0.25f);
      EXPECT_EQ(pipeline.process(x).rows(), frames) << samples;
    }
  }
}

TEST(FeaturePipeline, RejectsZeroShift) {
  // A zero shift would never advance the framing loop; a zero length has
  // no frame.  Both must fail at construction, for either kind.
  FeaturePipelineConfig cfg = statics_config(FeatureKind::kMfcc);
  cfg.mfcc.frame_shift = 0;
  EXPECT_THROW(FeaturePipeline{cfg}, std::invalid_argument);
  cfg.mfcc.frame_shift = 80;
  cfg.mfcc.frame_length = 0;
  EXPECT_THROW(FeaturePipeline{cfg}, std::invalid_argument);
  cfg = statics_config(FeatureKind::kPlp);
  cfg.plp.frame_shift = 0;
  EXPECT_THROW(FeaturePipeline{cfg}, std::invalid_argument);
  cfg.plp.frame_shift = 80;
  cfg.plp.frame_length = 0;
  EXPECT_THROW(FeaturePipeline{cfg}, std::invalid_argument);
}

// Framing is the pipeline's stage that cuts frame t from samples
// [t * frame_shift, t * frame_shift + frame_length) and windows it.

TEST(Framer, ExtractsCorrectRegion) {
  // A burst in otherwise silent audio must reach exactly the frames whose
  // region contains it; every other frame is the silence row.
  for (auto kind : {FeatureKind::kMfcc, FeatureKind::kPlp}) {
    FeaturePipelineConfig cfg = statics_config(kind);
    cfg.mfcc.pre_emph = cfg.plp.pre_emph = 0.0f;
    const std::size_t length = 200, shift = 80, burst = 1000;
    std::vector<float> x(2000, 0.0f);
    x[burst] = 1.0f;
    const auto got = FeaturePipeline(cfg).process(x);
    const auto silence =
        FeaturePipeline(cfg).process(std::vector<float>(length, 0.0f));
    ASSERT_EQ(got.rows(), (x.size() - length) / shift + 1);
    for (std::size_t t = 0; t < got.rows(); ++t) {
      const bool covers = t * shift <= burst && burst < t * shift + length;
      const bool is_silence = std::equal(
          got.row(t).begin(), got.row(t).end(), silence.row(0).begin());
      EXPECT_NE(covers, is_silence) << "frame " << t;
    }
  }
}

TEST(Framer, AppliesWindow) {
  // A constant signal through the window equals the pre-windowed signal
  // through a rectangular window, bit for bit, and differs from the
  // unwindowed constant.
  for (auto kind : {FeatureKind::kMfcc, FeatureKind::kPlp}) {
    FeaturePipelineConfig cfg = statics_config(kind);
    cfg.mfcc.pre_emph = cfg.plp.pre_emph = 0.0f;
    cfg.mfcc.window = cfg.plp.window = WindowType::kHamming;
    const std::size_t length = 200;
    const std::vector<float> flat(length, 2.0f);
    const auto windowed = FeaturePipeline(cfg).process(flat);
    std::vector<float> shaped = make_window(WindowType::kHamming, length);
    for (float& v : shaped) v *= 2.0f;
    cfg.mfcc.window = cfg.plp.window = WindowType::kRectangular;
    ASSERT_EQ(windowed.rows(), 1u);
    expect_bit_identical(windowed, FeaturePipeline(cfg).process(shaped));
    EXPECT_FALSE(windowed == FeaturePipeline(cfg).process(flat));
  }
}

TEST(PreEmphasis, HighPassesSteps) {
  // Pre-emphasis turns a DC signal of 1 into the constant 1 - c, so the
  // features equal those of that constant with pre-emphasis off.
  for (auto kind : {FeatureKind::kMfcc, FeatureKind::kPlp}) {
    FeaturePipelineConfig cfg = statics_config(kind);
    cfg.mfcc.pre_emph = cfg.plp.pre_emph = 0.97f;
    const auto dc = FeaturePipeline(cfg).process(std::vector<float>(800, 1.0f));
    cfg.mfcc.pre_emph = cfg.plp.pre_emph = 0.0f;
    const auto step = FeaturePipeline(cfg).process(
        std::vector<float>(800, 1.0f - 0.97f));
    ASSERT_GT(dc.rows(), 0u);
    expect_bit_identical(dc, step);
  }
}

TEST(PreEmphasis, ZeroCoeffIsIdentity) {
  const auto x = make_tone(880.0, 0.2, 8000.0, 0.5, 11);
  for (auto kind : {FeatureKind::kMfcc, FeatureKind::kPlp}) {
    FeaturePipelineConfig cfg = statics_config(kind);
    cfg.mfcc.pre_emph = cfg.plp.pre_emph = 0.0f;
    expect_bit_identical(FeaturePipeline(cfg).process(x),
                         reference_statics(cfg, x, /*emphasize=*/false));
  }
}

TEST(Mfcc, OutputShape) {
  MfccConfig cfg;
  const auto x = make_tone(440.0, 0.5, cfg.sample_rate);
  const auto feats = mfcc_statics(x);
  EXPECT_EQ(feats.cols(), cfg.num_ceps);
  EXPECT_EQ(feats.rows(), (x.size() - cfg.frame_length) / cfg.frame_shift + 1);
}

TEST(Mfcc, EmptySignalGivesNoFrames) {
  std::vector<float> x(10, 0.0f);  // shorter than one frame
  EXPECT_EQ(mfcc_statics(x).rows(), 0u);
}

TEST(Mfcc, FiniteOnSilence) {
  std::vector<float> x(4000, 0.0f);
  const auto feats = mfcc_statics(x);
  for (std::size_t t = 0; t < feats.rows(); ++t) {
    for (std::size_t d = 0; d < feats.cols(); ++d) {
      EXPECT_TRUE(std::isfinite(feats(t, d)));
    }
  }
}

TEST(Mfcc, DistinguishesTones) {
  const auto lo = mfcc_statics(make_tone(300.0, 0.3, 8000.0));
  const auto hi = mfcc_statics(make_tone(2000.0, 0.3, 8000.0));
  ASSERT_GT(lo.rows(), 0u);
  // Compare mean cepstra: different spectral envelopes must differ clearly.
  double dist = 0.0;
  for (std::size_t d = 1; d < lo.cols(); ++d) {
    double m_lo = 0.0, m_hi = 0.0;
    for (std::size_t t = 0; t < lo.rows(); ++t) m_lo += lo(t, d);
    for (std::size_t t = 0; t < hi.rows(); ++t) m_hi += hi(t, d);
    m_lo /= static_cast<double>(lo.rows());
    m_hi /= static_cast<double>(hi.rows());
    dist += (m_lo - m_hi) * (m_lo - m_hi);
  }
  EXPECT_GT(std::sqrt(dist), 1.0);
}

TEST(Mfcc, DeterministicForSameInput) {
  const auto x = make_tone(700.0, 0.2, 8000.0, 0.1);
  const auto a = mfcc_statics(x);
  const auto b = mfcc_statics(x);
  EXPECT_TRUE(a == b);
}

TEST(Mfcc, RejectsFrameLongerThanFft) {
  FeaturePipelineConfig cfg = statics_config(FeatureKind::kMfcc);
  cfg.mfcc.frame_length = 512;
  cfg.mfcc.n_fft = 256;
  EXPECT_THROW(FeaturePipeline{cfg}, std::invalid_argument);
}

TEST(LevinsonDurbin, SolvesKnownAr1Process) {
  // AR(1): x[t] = a x[t-1] + e  ->  R[k] = a^k / (1-a^2) (up to scale).
  const double a = 0.7;
  std::vector<double> autocorr(4);
  for (std::size_t k = 0; k < 4; ++k) autocorr[k] = std::pow(a, k);
  std::vector<double> lpc(2);
  const double err = levinson_durbin(autocorr, lpc);
  EXPECT_NEAR(lpc[0], a, 1e-9);
  EXPECT_NEAR(lpc[1], 0.0, 1e-9);
  EXPECT_NEAR(err, 1.0 - a * a, 1e-9);
}

TEST(LevinsonDurbin, RejectsNonPositiveR0) {
  std::vector<double> autocorr = {0.0, 0.1};
  std::vector<double> lpc(1);
  EXPECT_THROW(levinson_durbin(autocorr, lpc), std::invalid_argument);
}

TEST(LevinsonDurbin, StableFilterForValidAutocorrelation) {
  // For a positive-definite autocorrelation the reflection coefficients
  // stay in (-1, 1) and the error remains positive.
  std::vector<double> autocorr = {2.0, 1.1, 0.6, 0.2, 0.05};
  std::vector<double> lpc(4);
  const double err = levinson_durbin(autocorr, lpc);
  EXPECT_GT(err, 0.0);
  EXPECT_LT(err, 2.0);  // prediction reduces error
}

TEST(LpcToCepstrum, FirstCepstrumIsLogGain) {
  std::vector<double> lpc = {0.5};
  std::vector<double> ceps(3);
  lpc_to_cepstrum(lpc, std::exp(2.0), ceps);
  EXPECT_NEAR(ceps[0], 2.0, 1e-12);
  EXPECT_NEAR(ceps[1], 0.5, 1e-12);
  // c2 = a2 + (1/2) c1 a1 = 0 + 0.5*0.5*0.5
  EXPECT_NEAR(ceps[2], 0.125, 1e-12);
}

TEST(Plp, OutputShapeAndFiniteness) {
  PlpConfig cfg;
  const auto x = make_tone(600.0, 0.4, cfg.sample_rate, 0.2);
  const auto feats = plp_statics(x);
  EXPECT_EQ(feats.cols(), cfg.num_ceps);
  EXPECT_GT(feats.rows(), 0u);
  for (std::size_t t = 0; t < feats.rows(); ++t) {
    for (std::size_t d = 0; d < feats.cols(); ++d) {
      EXPECT_TRUE(std::isfinite(feats(t, d))) << t << "," << d;
    }
  }
}

TEST(Plp, DistinguishesTones) {
  const auto lo = plp_statics(make_tone(350.0, 0.3, 8000.0));
  const auto hi = plp_statics(make_tone(1800.0, 0.3, 8000.0));
  ASSERT_GT(lo.rows(), 0u);
  double dist = 0.0;
  for (std::size_t d = 1; d < lo.cols(); ++d) {
    double m_lo = 0.0, m_hi = 0.0;
    for (std::size_t t = 0; t < lo.rows(); ++t) m_lo += lo(t, d);
    for (std::size_t t = 0; t < hi.rows(); ++t) m_hi += hi(t, d);
    dist += std::abs(m_lo / static_cast<double>(lo.rows()) -
                     m_hi / static_cast<double>(hi.rows()));
  }
  EXPECT_GT(dist, 0.1);
}

TEST(Plp, DiffersFromMfcc) {
  // The two front-ends must produce genuinely different representations —
  // that difference is the diversification the paper fuses over.
  const auto x = make_tone(500.0, 0.3, 8000.0, 0.3);
  const auto a = mfcc_statics(x);
  const auto b = plp_statics(x);
  ASSERT_EQ(a.rows(), b.rows());
  double diff = 0.0;
  for (std::size_t t = 0; t < a.rows(); ++t) {
    for (std::size_t d = 0; d < std::min(a.cols(), b.cols()); ++d) {
      diff += std::abs(a(t, d) - b(t, d));
    }
  }
  EXPECT_GT(diff, 1.0);
}

}  // namespace
}  // namespace phonolid::dsp
