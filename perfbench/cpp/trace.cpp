#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

const char* to_string(SpanName n) noexcept {
  switch (n) {
    case SpanName::kNone: return "-";
    case SpanName::kOp: return "op";
    case SpanName::kServeSubmit: return "serve.submit";
    case SpanName::kServeRequest: return "serve.request";
    case SpanName::kExecForward: return "executor.forward";
    case SpanName::kExecInverse: return "executor.inverse";
  }
  return "?";
}

std::size_t Tracer::stored() const noexcept {
  return std::min(next_.load(std::memory_order_relaxed), spans_.size());
}

std::size_t Tracer::dropped() const noexcept {
  const std::size_t n = next_.load(std::memory_order_relaxed);
  return n > spans_.size() ? n - spans_.size() : 0;
}

std::vector<double> Tracer::durations(SpanName name) const {
  std::vector<double> d;
  const std::size_t n = stored();
  for (std::size_t i = 0; i < n; ++i)
    if (spans_[i].name == name)
      d.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
  return d;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name\tparent\top\tstart_ns\tend_ns\n";
  const std::size_t n = stored();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << to_string(s.name) << '\t' << to_string(s.parent) << '\t' << s.op
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
