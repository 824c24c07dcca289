#pragma once
// Common numeric types of the FFT library. The core is precision-generic:
// every hot kernel is instantiated for both double-complex (16 bytes, the
// paper's experimental setup) and float-complex (8 bytes, where SIMD width
// doubles and the bank/cache-set mapping of a given element stride
// genuinely changes — see DESIGN.md "Precision-generic core"). `cplx`
// stays the double-precision default so existing call sites are
// unaffected.

#include <complex>

namespace c64fft::fft {

/// The complex element type of a transform with real type T.
template <typename T>
using cplx_t = std::complex<T>;

/// Double-precision complex — the historical (and default) element type.
using cplx = cplx_t<double>;

/// Single-precision complex.
using cplx32 = cplx_t<float>;

/// Naive complex product. std::complex operator* computes the same four
/// products and two sums, then takes the Annex G recovery branch (the
/// __mulsc3/__muldc3 libcall) when both parts come out NaN; that branch
/// costs a compare per product and blocks vectorization. For finite
/// operands the two agree bit-for-bit, so hot loops use this form.
template <typename T>
inline cplx_t<T> cmul(const cplx_t<T>& a, const cplx_t<T>& b) {
  return cplx_t<T>(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
}

/// Runtime tag of a transform's element type: the plan-cache key, the
/// executor entry points, and the byte-level analyses (bank balance,
/// cache sets, simulated footprints) are parameterized by it.
enum class Precision { kF32, kF64 };

/// Bytes of one data/twiddle element at the given precision
/// (sizeof(std::complex<float>) = 8, sizeof(std::complex<double>) = 16).
constexpr unsigned element_bytes(Precision p) noexcept {
  return p == Precision::kF32 ? 8u : 16u;
}

/// Precision tag of a real scalar type (float or double).
template <typename T>
inline constexpr Precision precision_of = Precision::kF64;
template <>
inline constexpr Precision precision_of<float> = Precision::kF32;

constexpr const char* to_string(Precision p) noexcept {
  return p == Precision::kF32 ? "f32" : "f64";
}

}  // namespace c64fft::fft
