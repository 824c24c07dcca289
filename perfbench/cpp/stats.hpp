#pragma once
// Summary statistics shared by every workload: medians, quantiles, the
// tail rule, and the open-loop pacing/latency bookkeeping.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

/// Linear-interpolated percentile p in [0, 100] of a sample (the
/// library's own util::percentile).
using c64fft::util::percentile;

/// The highest percentile that still has at least `min_beyond` samples
/// strictly above it: the (n - min_beyond)-th order statistic. `valid` is
/// false when the sample has no more than `min_beyond` entries.
struct Tail {
  bool valid = false;
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * (n - min_beyond) / n
  std::size_t samples = 0;
  std::size_t beyond = 0;   ///< samples strictly greater than `value`
};
Tail tail_with_beyond(std::vector<double> v, std::size_t min_beyond = 10);

/// One completed operation: its latency (closed loop: time inside the
/// library calls; open loop: due time to completion) and nominal flops.
struct OpSample {
  double latency_ns = 0.0;
  double flops = 0.0;
};

/// The completed operations of one measured pass over [t0_ns, t1_ns], and
/// the CPU time the library spent on them (every thread, ns).
struct PassSummary {
  std::vector<OpSample> ops;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::vector<double> latencies() const;
};

/// Arrival offsets (ns after the pass start) of a Poisson process at
/// `rate` per second over `seconds`, drawn from `seed`.
std::vector<std::uint64_t> poisson_due_times(double rate, double seconds,
                                             std::uint64_t seed);

/// Open-loop pacing: waits until each due time on `clock`, then calls
/// `submit(i, due_ns)`. The submit itself may block (an injected stall);
/// later requests are still timed from their own due times, so a stall
/// shows up as latency on every request behind it instead of silently
/// delaying their send. Between arrivals `idle()` runs (the generator
/// drains and checks completions there). Returns the per-request
/// lateness: actual submit start minus due time, ns.
template <typename Clock, typename Submit, typename Idle>
std::vector<std::uint64_t> pace_open_loop(std::span<const std::uint64_t> due_ns,
                                          std::uint64_t t0, Clock& clock,
                                          Submit&& submit, Idle&& idle) {
  std::vector<std::uint64_t> lateness(due_ns.size());
  for (std::size_t i = 0; i < due_ns.size(); ++i) {
    const std::uint64_t due = t0 + due_ns[i];
    while (clock.now() < due) {
      if (!idle()) clock.wait_until(due);
    }
    const std::uint64_t start = clock.now();
    lateness[i] = start - due;
    submit(i, due);
  }
  return lateness;
}

/// Latency of a request timed from when it was due, not from when it was
/// sent (ns).
inline std::uint64_t due_latency_ns(std::uint64_t due, std::uint64_t done) {
  return done > due ? done - due : 0;
}

}  // namespace perfbench
