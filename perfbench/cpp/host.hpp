#pragma once
// Host facts the benchmark needs: a monotonic clock, CPU-time clocks, the
// CPU count, peak resident memory, and the host fingerprint recorded with
// every run.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process (every thread) since it started, ns.
/// Unlike wall time it excludes time a thread waits: parked, preempted, or
/// on a virtual CPU the hypervisor has taken away (a KVM guest with
/// paravirtual steal accounting charges stolen time to no thread).
inline std::uint64_t process_cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(t.tv_nsec);
}

/// CPU time of the calling thread, ns (same accounting as process_cpu_ns).
inline std::uint64_t thread_cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(t.tv_nsec);
}

/// Real clock for pace_open_loop: sleeps while the due time is far away,
/// spins over the last stretch so arrivals land on time.
struct SteadyClock {
  std::uint64_t now() const { return now_ns(); }
  void wait_until(std::uint64_t due) const {
    const std::uint64_t t = now_ns();
    if (due > t + 200'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - t - 100'000));
  }
};

/// CPUs this process may run on (sched affinity), at least 1.
unsigned cpu_count();

/// Peak resident set size of this process so far, MiB.
double peak_rss_mib();

/// What makes two runs comparable: CPU count, the active kernel ISA tier,
/// and the cache sizes util::cache_info() reports.
struct Fingerprint {
  unsigned cpus = 0;
  std::string isa;
  std::uint64_t l1d_bytes = 0;
  std::uint64_t l2_bytes = 0;
  std::uint64_t llc_bytes = 0;

  std::string to_json() const;
};
Fingerprint host_fingerprint();

/// Peak double-precision FMA throughput of one thread, GFLOPS (2 flops
/// per lane per FMA); 0 when the host lacks AVX2+FMA or the probe was not
/// built. Defined in peak_fma.cpp.
double fma_peak_gflops_one_thread(double seconds);

}  // namespace perfbench
