#pragma once
// One run's result: operations attempted/failed, correctness and
// invariant failures, metrics with units, and descriptive notes. Printed
// as one JSON object on the last line of stdout (run.py reshapes it).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"

namespace perfbench {

struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  OpTally ops;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t check_failures = 0;
  /// Invariant violations and failed checks, as messages (capped).
  std::vector<std::string> failures;
  std::uint64_t failure_count = 0;

  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  // key -> JSON text

  void metric(std::string name, double value, std::string unit);
  void note(std::string key, double value);
  void note(std::string key, const std::string& text);
  /// A violated invariant or failed check: the run is not correct.
  void fail(std::string message);
  /// Count a failed correctness check against one operation.
  void check_failed(std::string message);

  bool correct() const { return failure_count == 0; }
  std::string to_json(const std::string& fingerprint_json) const;
};

}  // namespace perfbench
