#include "checks.hpp"

#include <algorithm>
#include <numbers>

#include "fft/reference.hpp"
#include "util/prng.hpp"

namespace perfbench {

// Sums are blocked: double partial sums over kBlock terms, block totals
// in long double. A plain double sum of N terms drifts by ~eps * sqrt(N),
// which at N = 2^20 would swamp the eps * log2(N) bound the checks hold
// the library to; the blocked sum drifts by ~eps * sqrt(kBlock) and still
// runs at double speed.
constexpr std::size_t kBlock = 256;

template <typename T>
double energy(std::span<const cplx_t<T>> x) {
  long double total = 0.0L;
  for (std::size_t b = 0; b < x.size(); b += kBlock) {
    const std::size_t e = std::min(x.size(), b + kBlock);
    double s = 0.0;
    for (std::size_t i = b; i < e; ++i) {
      const double re = x[i].real(), im = x[i].imag();
      s += re * re + im * im;
    }
    total += s;
  }
  return static_cast<double>(total);
}

template <typename T>
double parseval_error(double in_energy, std::span<const cplx_t<T>> out) {
  const double e = energy<T>(out) / static_cast<double>(out.size());
  return std::abs(e - in_energy) / in_energy;
}

/// Relative L2 distance of got from want; a non-null `restore` also
/// receives a copy of want in the same pass.
template <typename T>
double l2_pass(const cplx_t<T>* got, const cplx_t<T>* want, std::size_t n,
               cplx_t<T>* restore) {
  long double num = 0.0L, den = 0.0L;
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t e = std::min(n, b + kBlock);
    double sn = 0.0, sd = 0.0;
    for (std::size_t i = b; i < e; ++i) {
      const double wr = want[i].real(), wi = want[i].imag();
      const double dr = static_cast<double>(got[i].real()) - wr;
      const double di = static_cast<double>(got[i].imag()) - wi;
      sn += dr * dr + di * di;
      sd += wr * wr + wi * wi;
      if (restore) restore[i] = want[i];
    }
    num += sn;
    den += sd;
  }
  return static_cast<double>(std::sqrt(num / den));
}

template <typename T>
double relative_l2_error(std::span<const cplx_t<T>> got,
                         std::span<const cplx_t<T>> want) {
  return l2_pass<T>(got.data(), want.data(), want.size(), nullptr);
}

template <typename T>
double round_trip_error_and_restore(std::span<cplx_t<T>> got,
                                    std::span<const cplx_t<T>> want) {
  return l2_pass<T>(got.data(), want.data(), want.size(), got.data());
}

template <typename T>
cplx direct_bin(std::span<const cplx_t<T>> x, std::uint64_t k) {
  // Twiddles by recurrence, re-anchored on an exact angle every kAnchor
  // terms (the recurrence's phase error grows linearly between anchors);
  // blocked accumulation as in energy().
  constexpr std::uint64_t kAnchor = 16;
  const std::uint64_t n = x.size();
  const double step = -2.0 * std::numbers::pi / static_cast<double>(n);
  const cplx w1(std::cos(step * static_cast<double>(k % n)),
                std::sin(step * static_cast<double>(k % n)));
  long double acc_re = 0.0L, acc_im = 0.0L;
  for (std::uint64_t b = 0; b < n; b += kAnchor) {
    const double a =
        step * static_cast<double>(static_cast<unsigned __int128>(b) * k % n);
    cplx w(std::cos(a), std::sin(a));
    cplx s(0.0, 0.0);  // anchor-sized partial sum
    const std::uint64_t e = std::min<std::uint64_t>(n, b + kAnchor);
    for (std::uint64_t j = b; j < e; ++j) {
      s += cplx(x[j].real(), x[j].imag()) * w;
      w *= w1;
    }
    acc_re += s.real();
    acc_im += s.imag();
  }
  return cplx(static_cast<double>(acc_re), static_cast<double>(acc_im));
}

template <typename T>
double bin_error(std::span<const cplx_t<T>> x, double x_energy,
                 const cplx_t<T>& got, std::uint64_t k) {
  const cplx d = direct_bin<T>(x, k);
  const cplx g(got.real(), got.imag());
  return std::abs(g - d) / std::sqrt(x_energy);
}

template <typename T>
double reference_dft_error(std::span<const cplx_t<T>> input,
                           std::span<const cplx_t<T>> output) {
  std::vector<cplx> in64(input.size()), out64(output.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    in64[i] = cplx(input[i].real(), input[i].imag());
    out64[i] = cplx(output[i].real(), output[i].imag());
  }
  const std::vector<cplx> ref = c64fft::fft::dft_reference(in64);
  return relative_l2_error<double>(out64, ref);
}

template <typename T>
std::vector<cplx_t<T>> random_signal(std::uint64_t n, std::uint64_t seed) {
  c64fft::util::Xoshiro256 rng(seed);
  std::vector<cplx_t<T>> v(n);
  for (auto& x : v) {
    const double re = rng.next_double() * 2 - 1;
    const double im = rng.next_double() * 2 - 1;
    x = cplx_t<T>(static_cast<T>(re), static_cast<T>(im));
  }
  return v;
}

#define PERFBENCH_INSTANTIATE(T)                                              \
  template double energy<T>(std::span<const cplx_t<T>>);                      \
  template double parseval_error<T>(double, std::span<const cplx_t<T>>);     \
  template double relative_l2_error<T>(std::span<const cplx_t<T>>,            \
                                       std::span<const cplx_t<T>>);           \
  template double round_trip_error_and_restore<T>(std::span<cplx_t<T>>,       \
                                                  std::span<const cplx_t<T>>); \
  template cplx direct_bin<T>(std::span<const cplx_t<T>>, std::uint64_t);     \
  template double bin_error<T>(std::span<const cplx_t<T>>, double,            \
                               const cplx_t<T>&, std::uint64_t);              \
  template double reference_dft_error<T>(std::span<const cplx_t<T>>,          \
                                         std::span<const cplx_t<T>>);         \
  template std::vector<cplx_t<T>> random_signal<T>(std::uint64_t, std::uint64_t);
PERFBENCH_INSTANTIATE(float)
PERFBENCH_INSTANTIATE(double)
#undef PERFBENCH_INSTANTIATE

}  // namespace perfbench
