#include "record.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {
namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Record::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Record::note(std::string key, double value) {
  notes.emplace_back(std::move(key), number(value));
}

void Record::note(std::string key, const std::string& text) {
  notes.emplace_back(std::move(key), quote(text));
}

void Record::fail(std::string message) {
  ++failure_count;
  if (failures.size() < 20) failures.push_back(std::move(message));
}

void Record::check_failed(std::string message) {
  ++check_failures;
  fail(std::move(message));
}

std::string Record::to_json(const std::string& fingerprint_json) const {
  std::ostringstream o;
  o << "{\"workload\": " << quote(workload) << ", \"seed\": " << seed
    << ", \"trace\": " << (traced ? 1 : 0)
    << ", \"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << ops.attempted << ", \"failed\": " << ops.failed
    << ", \"rejected\": " << rejected << ", \"errors\": " << errors
    << ", \"check_failures\": " << check_failures
    << ", \"fingerprint\": " << fingerprint_json << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    o << (i ? ", " : "") << quote(failures[i]);
  o << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    o << (i ? ", " : "") << quote(metrics[i].name) << ": {\"value\": "
      << number(metrics[i].value) << ", \"unit\": " << quote(metrics[i].unit)
      << "}";
  o << "}, \"notes\": {";
  for (std::size_t i = 0; i < notes.size(); ++i)
    o << (i ? ", " : "") << quote(notes[i].first) << ": " << notes[i].second;
  o << "}}";
  return o.str();
}

}  // namespace perfbench
