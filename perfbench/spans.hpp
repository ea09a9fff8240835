// In-memory span recorder for the benchmark's traced pass.
//
// Spans are opened and closed by the benchmark around its own calls into
// the libraries (never inside them), kept in memory while the pass runs and
// written out once it ends. A span's parent is whatever span was open when
// it started, so self time (duration minus the time covered by direct
// children) attributes nested work exactly once. Single-threaded by design:
// the benchmark opens spans only on its main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string label;  ///< e.g. the app a span's call ran on
  int parent = -1;    ///< index into the recorder's spans, -1 = root
  std::int64_t startNs = 0;
  std::int64_t endNs = -1;   ///< -1 while open
  std::int64_t childNs = 0;  ///< time covered by direct children

  [[nodiscard]] double seconds() const {
    return static_cast<double>(endNs - startNs) * 1e-9;
  }
  [[nodiscard]] double selfSeconds() const {
    return static_cast<double>(endNs - startNs - childNs) * 1e-9;
  }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Sum of durations (or self times) of every closed span called `name`.
  [[nodiscard]] double total(const std::string& name, bool self = false) const {
    double sum = 0.0;
    for (const Span& span : spans_) {
      if (span.name == name && span.endNs >= 0) {
        sum += self ? span.selfSeconds() : span.seconds();
      }
    }
    return sum;
  }
  [[nodiscard]] std::size_t count(const std::string& name) const {
    std::size_t n = 0;
    for (const Span& span : spans_) n += span.name == name ? 1 : 0;
    return n;
  }

  /// One JSON object per span: name, label, parent, start/end (ns since the
  /// recorder was created) and self time.
  void writeJsonl(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\": " << i << ", \"parent\": " << s.parent << ", \"name\": \""
         << s.name << "\", \"label\": \"" << s.label << "\", \"start_ns\": " << s.startNs
         << ", \"end_ns\": " << s.endNs
         << ", \"self_ns\": " << (s.endNs - s.startNs - s.childNs) << "}\n";
    }
  }

 private:
  friend class ScopedSpan;

  // Only ScopedSpan opens and closes spans, so they always close innermost
  // first.
  int open(std::string name, std::string label) {
    Span span;
    span.name = std::move(name);
    span.label = std::move(label);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.startNs = nowNs();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close() {
    Span& span = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    span.endNs = nowNs();
    if (span.parent >= 0) {
      spans_[static_cast<std::size_t>(span.parent)].childNs += span.endNs - span.startNs;
    }
  }

  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  ///< open spans, innermost last
};

/// RAII span: opens on construction, closes on scope exit (exceptions too).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::string label = {})
      : recorder_(recorder) {
    recorder_.open(std::move(name), std::move(label));
  }
  ~ScopedSpan() { recorder_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
};

}  // namespace perfbench
