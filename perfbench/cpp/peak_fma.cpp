// Peak-flop probe, compiled with -mavx2 -mfma (see CMakeLists.txt) and
// only entered after the cpuid check below.
#include <immintrin.h>

#include "host.hpp"
#include "util/cpu_features.hpp"

namespace perfbench {

double fma_peak_gflops_one_thread(double seconds) {
  const c64fft::util::CpuFeatures& f = c64fft::util::cpu_features();
  if (!f.avx2 || !f.fma) return 0.0;
  // Ten independent accumulator chains hide the FMA latency; the operands
  // stay in registers, so this is the compute roof, not a memory figure.
  __m256d acc[10];
  for (int i = 0; i < 10; ++i) acc[i] = _mm256_set1_pd(1.0 + i * 1e-3);
  const __m256d a = _mm256_set1_pd(0.999999);
  const __m256d b = _mm256_set1_pd(1e-7);
  constexpr std::uint64_t kInner = 1u << 16;
  std::uint64_t iters = 0;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t t1 = t0;
  while (t1 - t0 < budget) {
    for (std::uint64_t k = 0; k < kInner; ++k)
      for (int i = 0; i < 10; ++i) acc[i] = _mm256_fmadd_pd(acc[i], a, b);
    iters += kInner;
    t1 = now_ns();
  }
  double sink = 0.0;
  for (int i = 0; i < 10; ++i) {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc[i]);
    sink += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  // 10 chains x 4 lanes x 2 flops per iteration.
  const double flops = static_cast<double>(iters) * 10 * 4 * 2;
  return sink == 0.12345 ? 0.0 : flops / static_cast<double>(t1 - t0);
}

}  // namespace perfbench
