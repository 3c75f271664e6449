// Scoped spans: the project's timing primitive.
//
// Every wall-clock read in the tree funnels through obs::now_seconds() — one
// steady-clock site, one storsim-lint allow(nondeterminism) annotation, one
// process epoch. Spans measure a scope's duration, feed it back to the caller
// (stop() returns seconds, so PipelineStats-style stage accounting keeps
// working), and — when tracing is enabled — append a Chrome trace_event to
// the calling thread's buffer (obs/trace.h).
//
// Lifetime rules:
//  - A Span must not outlive the scope whose name it carries; name must be a
//    string literal (stored by pointer, never copied).
//  - stop() is idempotent via the destructor: an explicitly stopped span
//    records nothing further when destroyed.
//  - Spans nest freely (each is independent); the trace viewer reconstructs
//    the hierarchy from the thread id + time intervals.
#pragma once

namespace storsubsim::obs {

/// Seconds on the process-wide monotonic clock, relative to a fixed epoch
/// captured at startup. Differences and absolute values are both meaningful
/// within one process; values are observability outputs, never inputs.
double now_seconds() noexcept;

class Span {
 public:
  /// `name` must be a string literal (or otherwise outlive the trace sink).
  explicit Span(const char* name) noexcept
      : name_(name), start_seconds_(now_seconds()) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (open_) stop();
  }

  /// Ends the span, records it to the trace buffer (when tracing), and
  /// returns the elapsed seconds. Subsequent calls return 0 and record
  /// nothing.
  double stop() noexcept;

  /// Elapsed seconds so far without ending the span.
  double seconds() const noexcept { return now_seconds() - start_seconds_; }

 private:
  const char* name_;
  double start_seconds_;
  bool open_ = true;
};

}  // namespace storsubsim::obs
