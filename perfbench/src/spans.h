#ifndef CEBIS_PERFBENCH_SPANS_H
#define CEBIS_PERFBENCH_SPANS_H

// Spans for the traced runs, recorded from the benchmark's own files
// around calls into each layer's public functions. Every span goes to
// an obs::Tracer the benchmark owns (exported as Chrome trace JSON) and
// to a compact record kept beside it, from which self times are
// computed at nanosecond resolution: a span's duration minus the part
// its child spans cover. The tracer is never handed to the library's
// obs::Taps - nothing inside the program is instrumented here.
//
// Parents are tracked per thread (the innermost open span on the
// opening thread), so a span opened on another thread is a root.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(std::string workload);

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// An open span; closes on destruction. Default-constructed scopes
  /// are inert (the untraced path).
  class Scope {
   public:
    Scope() = default;
    ~Scope() { close(); }
    Scope(Scope&& other) noexcept;
    Scope& operator=(Scope&&) = delete;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void close() noexcept;

   private:
    friend class SpanLog;
    Scope(SpanLog* log, std::size_t index, cebis::obs::Tracer::Span span)
        : log_(log), index_(index), span_(std::move(span)) {}
    SpanLog* log_ = nullptr;
    std::size_t index_ = 0;
    cebis::obs::Tracer::Span span_;
  };

  /// Opens `name` (a string literal) for request `request` (the step
  /// index, or -1 for a span that is not about one step).
  [[nodiscard]] Scope open(const char* name, std::int64_t request = -1);

  /// The pass number stamped on spans opened from now on.
  void set_pass(int pass) { pass_ = pass; }

  /// Self times (seconds) of every closed span named `name`.
  [[nodiscard]] std::vector<double> self_times(const char* name) const;
  /// Durations (seconds) of every closed span named `name`.
  [[nodiscard]] std::vector<double> durations(const char* name) const;

  /// Prints the self-time table of the subtrees under every root span
  /// named `root`: per layer, calls and self time. The rows sum to the
  /// roots' total duration; the root's own row is the part no child
  /// span covers.
  void print_table(const char* root) const;

  void write_json(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Record {
    const char* name = nullptr;
    std::int64_t parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    bool closed = false;
  };
  void close(std::size_t index, Clock::time_point end) noexcept;
  /// Per record: duration minus its children's durations (seconds).
  [[nodiscard]] std::vector<double> self_all() const;

  std::string workload_;
  int pass_ = 0;
  cebis::obs::Tracer tracer_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

/// The call-site idiom: inert when tracing is off.
[[nodiscard]] inline SpanLog::Scope maybe_open(SpanLog* log, const char* name,
                                               std::int64_t request = -1) {
  return log == nullptr ? SpanLog::Scope{} : log->open(name, request);
}

}  // namespace perfbench

#endif  // CEBIS_PERFBENCH_SPANS_H
