#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/prng.hpp"

namespace perfbench {

Tail tail_with_beyond(std::vector<double> v, std::size_t min_beyond) {
  Tail t;
  t.samples = v.size();
  if (v.size() <= min_beyond) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - min_beyond - 1;
  t.valid = true;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(v.size() - min_beyond) /
                 static_cast<double>(v.size());
  t.beyond = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), t.value));
  return t;
}

std::vector<double> PassSummary::latencies() const {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const OpSample& o : ops) v.push_back(o.latency_ns);
  return v;
}

std::vector<std::uint64_t> poisson_due_times(double rate, double seconds,
                                             std::uint64_t seed) {
  c64fft::util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap; 1 - u keeps the log argument in (0, 1].
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    t += -std::log(1.0 - u) / rate * 1e9;
    if (t >= horizon_ns) break;
    due.push_back(static_cast<std::uint64_t>(t));
  }
  return due;
}

}  // namespace perfbench
