#include "obs/span.h"

#include <chrono>

#include "obs/trace.h"

namespace storsubsim::obs {

namespace {

double read_clock() noexcept {
  // The project's only wall-clock read: every timer (spans, bench harness
  // deltas) funnels through here, keeping the "timings are outputs, never
  // inputs" rule auditable at a single site.
  // storsim-lint: allow(nondeterminism) reason=observability-only span timing; values are reported, never fed back into simulation or analysis
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

/// Process epoch: captured once before main() so every span and trace
/// timestamp shares the same zero and traces start near t=0.
const double g_epoch = read_clock();

}  // namespace

double now_seconds() noexcept { return read_clock() - g_epoch; }

double Span::stop() noexcept {
  if (!open_) return 0.0;
  open_ = false;
  const double elapsed = now_seconds() - start_seconds_;
  if (tracing_enabled()) {
    detail::record_span(name_, start_seconds_, elapsed);
  }
  return elapsed;
}

}  // namespace storsubsim::obs
