#include "dsp/fft.h"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace phonolid::dsp {

Fft::Fft(std::size_t n) : n_(n) {
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("Fft size must be a power of two >= 2");
  }
  // Bit-reversal permutation table.
  bitrev_.resize(n);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) {
      r = (r << 1) | ((i >> b) & 1u);
    }
    bitrev_[i] = r;
  }
  // Twiddles for each butterfly span: W_m^j = exp(-2*pi*i*j/m), packed by
  // stage (m = 2, 4, ..., n) contiguously: total n-1 entries.
  twiddle_.reserve(n - 1);
  for (std::size_t m = 2; m <= n; m <<= 1) {
    for (std::size_t j = 0; j < m / 2; ++j) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                           static_cast<double>(m);
      twiddle_.emplace_back(static_cast<float>(std::cos(angle)),
                            static_cast<float>(std::sin(angle)));
    }
  }
}

void Fft::forward(std::span<std::complex<float>> data) const {
  assert(data.size() == n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // The butterfly runs on float lanes ({re, im} pairs, the layout the
  // standard guarantees for std::complex<float>): GCC packs complex<float>
  // temporaries through the stack, which stalls on store-to-load
  // forwarding and made the transform ~8x slower.  The arithmetic is the
  // complex product's own, op for op — t = (wr*br - wi*bi, wr*bi + wi*br),
  // then u ± t — so for finite input the output bits are unchanged (only
  // complex<float>'s NaN-recovery path for infinite operands is dropped).
  float* const x = reinterpret_cast<float*>(data.data());
  const float* const tw = reinterpret_cast<const float*>(twiddle_.data());
  std::size_t tw_base = 0;
  for (std::size_t m = 2; m <= n_; m <<= 1) {
    const std::size_t half = m / 2;
    for (std::size_t k = 0; k < n_; k += m) {
      float* const a = x + 2 * k;
      float* const b = a + 2 * half;
      const float* const w = tw + 2 * tw_base;
      for (std::size_t j = 0; j < half; ++j) {
        const float wr = w[2 * j], wi = w[2 * j + 1];
        const float br = b[2 * j], bi = b[2 * j + 1];
        const float tr = wr * br - wi * bi;
        const float ti = wr * bi + wi * br;
        const float ur = a[2 * j], ui = a[2 * j + 1];
        a[2 * j] = ur + tr;
        a[2 * j + 1] = ui + ti;
        b[2 * j] = ur - tr;
        b[2 * j + 1] = ui - ti;
      }
    }
    tw_base += half;
  }
}

void Fft::inverse(std::span<std::complex<float>> data) const {
  assert(data.size() == n_);
  for (auto& v : data) v = std::conj(v);
  forward(data);
  const float inv_n = 1.0f / static_cast<float>(n_);
  for (auto& v : data) v = std::conj(v) * inv_n;
}

void Fft::power_spectrum(std::span<const float> in, std::span<float> out,
                         std::vector<std::complex<float>>& scratch) const {
  assert(in.size() == n_ && out.size() == n_ / 2 + 1);
  scratch.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) scratch[i] = {in[i], 0.0f};
  forward(scratch);
  for (std::size_t k = 0; k <= n_ / 2; ++k) {
    out[k] = std::norm(scratch[k]);
  }
}

}  // namespace phonolid::dsp
