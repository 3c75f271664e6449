// Chrome trace_event exporter: spans buffered per thread, serialized as the
// JSON Object Format that chrome://tracing and Perfetto load directly.
//
// Tracing is opt-in at runtime (--trace <file> in the CLI and benches).
// When disabled, Span::stop() skips the buffer entirely; enabling it changes
// no simulation or analysis byte — buffers are append-only side channels.
#pragma once

#include <cstdint>
#include <string>

namespace storsubsim::obs {

/// Globally enables/disables span recording. Off by default.
void set_tracing_enabled(bool enabled) noexcept;
bool tracing_enabled() noexcept;

/// Serializes all buffered events as a Chrome trace_event JSON document
/// ("X" complete events, microsecond timestamps, sorted by start time).
std::string trace_json();

namespace detail {
/// Appends one complete event to the calling thread's buffer. Called by
/// Span::stop() only when tracing is enabled.
void record_span(const char* name, double start_seconds, double dur_seconds);
}  // namespace detail

}  // namespace storsubsim::obs
