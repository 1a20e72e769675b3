// Microbenchmarks for the hot kernels at acoustic-model representative
// shapes: the per-frame FFT power spectrum every front end starts from, MLP
// forward/backward GEMMs (batch x features against hidden/state layers) and
// the batched diagonal-Gaussian scorer that dominates GMM-HMM decoding.
#include <benchmark/benchmark.h>

#include <complex>
#include <cstddef>
#include <vector>

#include "dsp/fft.h"
#include "la/batched_gaussian.h"
#include "la/kernels.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace {

using namespace phonolid;

util::Matrix random_matrix(std::size_t rows, std::size_t cols,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  util::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

// Power spectrum of one real frame: n = 256 is the front ends' n_fft
// (MfccConfig's default), 512 the next size up.  Reported per transform.
void BM_FftPowerSpectrum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dsp::Fft fft(n);
  util::Rng rng(8);
  std::vector<float> frame(n), power(n / 2 + 1);
  for (auto& v : frame) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<std::complex<float>> scratch;
  for (auto _ : state) {
    fft.power_spectrum(frame, power, scratch);
    benchmark::DoNotOptimize(power.data());
    benchmark::ClobberMemory();
  }
}

// MLP forward: batch x in against a (out x in) weight matrix, fused
// bias+sigmoid epilogue.  Shapes follow the NN-HMM front-ends (stacked
// features -> hidden -> tied states).
void BM_GemmNtBiasSigmoid(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto in = static_cast<std::size_t>(state.range(1));
  const auto out = static_cast<std::size_t>(state.range(2));
  const util::Matrix x = random_matrix(batch, in, 1);
  const util::Matrix w = random_matrix(out, in, 2);
  const std::vector<float> bias(out, 0.1f);
  util::Matrix c;
  for (auto _ : state) {
    la::gemm_nt(x, w, c, bias, la::Epilogue::kBiasSigmoid);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(batch * in * out) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

// Gradient reduction: delta^T activations (the backward-pass kernel).
void BM_GemmTn(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const auto in = static_cast<std::size_t>(state.range(2));
  const util::Matrix delta = random_matrix(batch, out, 3);
  const util::Matrix acts = random_matrix(batch, in, 4);
  util::Matrix grad;
  for (auto _ : state) {
    la::gemm_tn(delta, acts, grad, 1.0f / 128.0f);
    benchmark::DoNotOptimize(grad.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(batch * in * out) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

void BM_Gemv(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const util::Matrix a = random_matrix(rows, cols, 5);
  std::vector<float> x(cols, 0.5f), out(rows);
  for (auto _ : state) {
    la::gemv(a, x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(rows * cols) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

// Batched diagonal-Gaussian log-densities: T frames x (states * mixture
// components), the GMM-HMM decoding hot path.  Shapes mirror the quick
// (13-dim SDC/PLP, ~60 states x 2 comps) and default (39-dim, 32-comp UBM)
// model sizes.
void BM_BatchedLogGaussian(benchmark::State& state) {
  const auto frames = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto comps = static_cast<std::size_t>(state.range(2));
  util::Rng rng(6);
  la::BatchedGaussians::Builder builder(dim, comps);
  std::vector<float> mean(dim), var(dim);
  for (std::size_t c = 0; c < comps; ++c) {
    for (std::size_t d = 0; d < dim; ++d) {
      mean[d] = static_cast<float>(rng.uniform(-1.0, 1.0));
      var[d] = static_cast<float>(rng.uniform(0.5, 1.5));
    }
    builder.add(mean, var);
  }
  const la::BatchedGaussians bg = builder.build();
  const util::Matrix x = random_matrix(frames, dim, 7);
  util::Matrix scores;
  for (auto _ : state) {
    bg.score(x, scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      bg.flops_per_frame() * static_cast<double>(frames) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

}  // namespace

BENCHMARK(BM_FftPowerSpectrum)->Arg(256)->Arg(512);
// NN-HMM forward at quick scale (65-dim stacked input, 64 hidden, 60
// states) and default scale (195 input, 256 hidden, 120 states).
BENCHMARK(BM_GemmNtBiasSigmoid)
    ->Args({128, 65, 64})
    ->Args({128, 195, 256})
    ->Args({512, 256, 120});
BENCHMARK(BM_GemmTn)->Args({128, 64, 65})->Args({128, 256, 195});
BENCHMARK(BM_Gemv)->Args({64, 65})->Args({256, 195});
BENCHMARK(BM_BatchedLogGaussian)
    ->Args({300, 13, 120})
    ->Args({300, 39, 32})
    ->Args({3000, 39, 160});

BENCHMARK_MAIN();
