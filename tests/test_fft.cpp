#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "util/rng.h"

namespace phonolid::dsp {
namespace {

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(Fft(0), std::invalid_argument);
  EXPECT_THROW(Fft(1), std::invalid_argument);
  EXPECT_THROW(Fft(100), std::invalid_argument);
  EXPECT_NO_THROW(Fft(2));
  EXPECT_NO_THROW(Fft(256));
}

TEST(Fft, DeltaFunctionIsFlat) {
  Fft fft(16);
  std::vector<std::complex<float>> x(16, {0.0f, 0.0f});
  x[0] = {1.0f, 0.0f};
  fft.forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5);
  }
}

TEST(Fft, PureToneLandsInOneBin) {
  const std::size_t n = 64;
  Fft fft(n);
  std::vector<std::complex<float>> x(n);
  const std::size_t bin = 5;
  for (std::size_t t = 0; t < n; ++t) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(bin * t) / static_cast<double>(n);
    x[t] = {static_cast<float>(std::cos(angle)), 0.0f};
  }
  fft.forward(x);
  for (std::size_t k = 0; k < n; ++k) {
    const float mag = std::abs(x[k]);
    if (k == bin || k == n - bin) {
      EXPECT_NEAR(mag, n / 2.0f, 1e-3) << k;
    } else {
      EXPECT_NEAR(mag, 0.0f, 1e-3) << k;
    }
  }
}

TEST(Fft, InverseRecoversSignal) {
  const std::size_t n = 128;
  Fft fft(n);
  util::Rng rng(5);
  std::vector<std::complex<float>> x(n), orig(n);
  for (auto& v : x) {
    v = {static_cast<float>(rng.gaussian()), static_cast<float>(rng.gaussian())};
  }
  orig = x;
  fft.forward(x);
  fft.inverse(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-4);
    EXPECT_NEAR(x[i].imag(), orig[i].imag(), 1e-4);
  }
}

TEST(Fft, LinearityProperty) {
  const std::size_t n = 32;
  Fft fft(n);
  util::Rng rng(9);
  std::vector<std::complex<float>> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {static_cast<float>(rng.gaussian()), 0.0f};
    b[i] = {static_cast<float>(rng.gaussian()), 0.0f};
    sum[i] = a[i] + b[i];
  }
  fft.forward(a);
  fft.forward(b);
  fft.forward(sum);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sum[i].real(), a[i].real() + b[i].real(), 1e-3);
    EXPECT_NEAR(sum[i].imag(), a[i].imag() + b[i].imag(), 1e-3);
  }
}

TEST(Fft, ParsevalForPowerSpectrum) {
  // Sum of |x|^2 over time == mean of |X|^2 over frequency.
  const std::size_t n = 256;
  Fft fft(n);
  util::Rng rng(11);
  std::vector<float> x(n);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = static_cast<float>(rng.gaussian());
    time_energy += static_cast<double>(v) * v;
  }
  std::vector<float> power(n / 2 + 1);
  std::vector<std::complex<float>> scratch;
  fft.power_spectrum(x, power, scratch);
  // Reassemble full-spectrum energy from the half spectrum (bins 1..n/2-1
  // appear twice in the full spectrum).
  double freq_energy = power[0] + power[n / 2];
  for (std::size_t k = 1; k < n / 2; ++k) freq_energy += 2.0 * power[k];
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              time_energy * 1e-4);
}

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, RoundTripAtEverySize) {
  const std::size_t n = GetParam();
  Fft fft(n);
  util::Rng rng(n);
  std::vector<std::complex<float>> x(n), orig;
  for (auto& v : x) v = {static_cast<float>(rng.uniform(-1, 1)), 0.0f};
  orig = x;
  fft.forward(x);
  fft.inverse(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-4);
  }
}

// Textbook radix-2 transform on std::complex<float> arithmetic: the same
// twiddles, bit reversal and butterfly order as Fft, written the plain way.
// Fft's float-lane butterfly must reproduce it bit for bit.
void reference_forward(std::vector<std::complex<float>>& data) {
  const std::size_t n = data.size();
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) r = (r << 1) | ((i >> b) & 1u);
    if (i < r) std::swap(data[i], data[r]);
  }
  for (std::size_t m = 2; m <= n; m <<= 1) {
    const std::size_t half = m / 2;
    for (std::size_t k = 0; k < n; k += m) {
      for (std::size_t j = 0; j < half; ++j) {
        const double angle = -2.0 * std::numbers::pi *
                             static_cast<double>(j) / static_cast<double>(m);
        const std::complex<float> w(static_cast<float>(std::cos(angle)),
                                    static_cast<float>(std::sin(angle)));
        const auto t = w * data[k + j + half];
        const auto u = data[k + j];
        data[k + j] = u + t;
        data[k + j + half] = u - t;
      }
    }
  }
}

void expect_same_bits(float got, float want, const char* what,
                      std::size_t n, std::size_t i) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got),
            std::bit_cast<std::uint32_t>(want))
      << what << " n=" << n << " i=" << i << ": " << got << " vs " << want;
}

TEST_P(FftSizeTest, BitIdenticalToComplexReference) {
  const std::size_t n = GetParam();
  Fft fft(n);
  util::Rng rng(1000 + n);
  std::vector<std::complex<float>> x(n);
  for (auto& v : x) {
    v = {static_cast<float>(rng.gaussian()), static_cast<float>(rng.gaussian())};
  }

  auto got = x, want = x;
  fft.forward(got);
  reference_forward(want);
  for (std::size_t i = 0; i < n; ++i) {
    expect_same_bits(got[i].real(), want[i].real(), "forward re", n, i);
    expect_same_bits(got[i].imag(), want[i].imag(), "forward im", n, i);
  }

  got = x;
  want = x;
  fft.inverse(got);
  for (auto& v : want) v = std::conj(v);
  reference_forward(want);
  const float inv_n = 1.0f / static_cast<float>(n);
  for (auto& v : want) v = std::conj(v) * inv_n;
  for (std::size_t i = 0; i < n; ++i) {
    expect_same_bits(got[i].real(), want[i].real(), "inverse re", n, i);
    expect_same_bits(got[i].imag(), want[i].imag(), "inverse im", n, i);
  }

  std::vector<float> signal(n);
  for (auto& v : signal) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> power(n / 2 + 1);
  std::vector<std::complex<float>> scratch;
  fft.power_spectrum(signal, power, scratch);
  std::vector<std::complex<float>> spectrum(signal.begin(), signal.end());
  reference_forward(spectrum);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    expect_same_bits(power[k], std::norm(spectrum[k]), "power", n, k);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512,
                                           1024));

}  // namespace
}  // namespace phonolid::dsp
