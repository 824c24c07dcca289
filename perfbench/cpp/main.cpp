// perfbench — end-to-end benchmark of the FFT library as users call it.
//
//   perfbench --workload <serve_open|large_transform>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--setup-only]
//   perfbench --fingerprint
//
// --setup-only stops once the workload is warm and reports only setup_s
// (run.py starts several such processes to take the median set-up).
//
// Prints one JSON record as the last line of stdout (run.py turns it into
// the benchmark's result line). Exit status: 0 when every check and
// invariant held, 1 when one failed, 2 on a usage error.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "host.hpp"
#include "record.hpp"
#include "workloads.hpp"

namespace {

// Initialized before main() runs: the set-up's wall time counts from
// process start.
const std::uint64_t g_process_start_ns = perfbench::now_ns();

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <serve_open|large_transform> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--setup-only]\n       perfbench --fingerprint\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.out_dir = ".";
  cfg.process_start_ns = g_process_start_ns;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--fingerprint") {
      std::cout << host_fingerprint().to_json() << "\n";
      return 0;
    }
    if (a == "--setup-only") {
      cfg.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0)) return usage("--seconds takes a positive number");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
    } else if (a == "--out-dir") {
      cfg.out_dir = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  cfg.cpus = cpu_count();

  Record rec;
  rec.workload = workload;
  rec.seed = cfg.seed;
  rec.traced = cfg.trace;
  try {
    if (workload == "serve_open")
      run_serve_open(cfg, rec);
    else if (workload == "large_transform")
      run_large_transform(cfg, rec);
    else
      return usage("unknown workload");
    if (cfg.trace && !cfg.setup_only) {
      if (workload != "serve_open") run_serve_probe(cfg, rec);
      run_layer_probes(cfg, rec);
    }
  } catch (const std::exception& e) {
    ++rec.errors;
    rec.fail(std::string("uncaught exception: ") + e.what());
  }
  std::cout << rec.to_json(host_fingerprint().to_json()) << std::endl;
  return rec.correct() ? 0 : 1;
}
