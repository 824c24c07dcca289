#pragma once
// Per-operation correctness checks that avoid the O(N^2) reference on the
// timed path. Forward is unscaled and inverse carries 1/N, so:
//   Parseval:   sum |X|^2 == N * sum |x|^2
//   round trip: inverse(forward(x)) == x
//   one bin:    X[k] == sum_j x[j] * exp(-2 pi i j k / N), an O(N) sum
// Every bound scales as kTolFactor * eps(T) * log2(N), relative to the
// signal's L2 norm (or energy for Parseval).

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "fft/types.hpp"

namespace perfbench {

using c64fft::fft::cplx;
using c64fft::fft::cplx32;
template <typename T>
using cplx_t = c64fft::fft::cplx_t<T>;

inline constexpr double kTolFactor = 16.0;

template <typename T>
double tolerance(std::uint64_t n) {
  return kTolFactor * static_cast<double>(std::numeric_limits<T>::epsilon()) *
         std::max(1.0, std::log2(static_cast<double>(n)));
}

/// sum |x|^2 (blocked double sums, long double across blocks).
template <typename T>
double energy(std::span<const cplx_t<T>> x);

/// Relative Parseval error |E_out / N - E_in| / E_in.
template <typename T>
double parseval_error(double in_energy, std::span<const cplx_t<T>> out);

/// ||got - want||_2 / ||want||_2.
template <typename T>
double relative_l2_error(std::span<const cplx_t<T>> got,
                         std::span<const cplx_t<T>> want);

/// Round-trip check that also restores `got` to `want` (so the next
/// operation starts from the exact input). Returns the relative L2 error.
template <typename T>
double round_trip_error_and_restore(std::span<cplx_t<T>> got,
                                    std::span<const cplx_t<T>> want);

/// Forward DFT bin k of x by a direct O(N) sum in double, with twiddles
/// from exact angles re-anchored every few terms.
template <typename T>
cplx direct_bin(std::span<const cplx_t<T>> x, std::uint64_t k);

/// |X[k] - direct| / ||x||_2.
template <typename T>
double bin_error(std::span<const cplx_t<T>> x, double x_energy,
                 const cplx_t<T>& got, std::uint64_t k);

/// Output of the library's forward transform against its reference DFT
/// (fft::dft_reference, computed in f64 even for an f32 input): relative
/// L2 error.
template <typename T>
double reference_dft_error(std::span<const cplx_t<T>> input,
                           std::span<const cplx_t<T>> output);

/// Seeded uniform signal in [-1, 1)^2.
template <typename T>
std::vector<cplx_t<T>> random_signal(std::uint64_t n, std::uint64_t seed);

/// Attempted/failed tally; a failed check is counted once and never
/// retried.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

}  // namespace perfbench
