#pragma once
// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each layer's public functions
// (nothing inside the library is instrumented), kept in a preallocated
// buffer, and written out once when the run ends. Spans of one operation
// share its op id; `parent` names the span that caused this one.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "host.hpp"

namespace perfbench {

enum class SpanName : std::uint16_t {
  kNone,
  kOp,             ///< one benchmark operation, end to end
  kServeSubmit,    ///< FftServer::submit
  kServeRequest,   ///< due time -> completion callback
  kExecForward,    ///< FftExecutor::forward
  kExecInverse,    ///< FftExecutor::inverse
};
const char* to_string(SpanName n) noexcept;

struct Span {
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanName name = SpanName::kNone;
  SpanName parent = SpanName::kNone;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : spans_(capacity) {}

  /// Thread-safe and allocation-free; a full buffer counts the span as
  /// dropped instead of growing.
  void record(SpanName name, SpanName parent, std::uint64_t op,
              std::uint64_t start_ns, std::uint64_t end_ns) noexcept {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) return;
    spans_[i] = Span{op, start_ns, end_ns, name, parent};
  }

  std::size_t stored() const noexcept;
  std::size_t dropped() const noexcept;
  /// Durations (ns) of the stored spans named `name`.
  std::vector<double> durations(SpanName name) const;
  /// One line per span: name, parent, op, start_ns, end_ns.
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
};

/// Times one call into a layer; a null tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, SpanName name, SpanName parent, std::uint64_t op)
      : t_(t), name_(name), parent_(parent), op_(op),
        start_(t ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (t_) t_->record(name_, parent_, op_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  SpanName name_, parent_;
  std::uint64_t op_;
  std::uint64_t start_;
};

}  // namespace perfbench
