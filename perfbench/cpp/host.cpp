#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <sstream>

#include "fft/kernels/dispatch.hpp"
#include "util/cpu_features.hpp"

namespace perfbench {

unsigned cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Fingerprint host_fingerprint() {
  const c64fft::util::CacheInfo& c = c64fft::util::cache_info();
  Fingerprint f;
  f.cpus = cpu_count();
  f.isa = c64fft::util::to_string(c64fft::fft::kernels::active_kernel_isa());
  f.l1d_bytes = c.l1d_bytes;
  f.l2_bytes = c.l2_bytes;
  f.llc_bytes = c.l3_bytes;
  return f;
}

std::string Fingerprint::to_json() const {
  std::ostringstream o;
  o << "{\"cpus\": " << cpus << ", \"isa\": \"" << isa
    << "\", \"l1d_bytes\": " << l1d_bytes << ", \"l2_bytes\": " << l2_bytes
    << ", \"llc_bytes\": " << llc_bytes << "}";
  return o.str();
}

#ifndef PERFBENCH_FMA
double fma_peak_gflops_one_thread(double) { return 0.0; }
#endif

}  // namespace perfbench
