#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.h"

namespace storsubsim::obs {

namespace {

struct TraceEvent {
  const char* name;
  double start_seconds;
  double dur_seconds;
  std::uint32_t tid;
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

struct TraceState {
  std::atomic<bool> enabled{false};
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // owned here, never freed
};

/// Leaked like the registry state: thread buffers must stay valid for any
/// thread that ever recorded, regardless of static destruction order.
TraceState& state() noexcept {
  static TraceState* const s = new TraceState();
  return *s;
}

thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer& this_buffer() {
  if (tl_buffer == nullptr) {
    TraceState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<std::uint32_t>(s.buffers.size());
    s.buffers.push_back(std::move(buffer));
    tl_buffer = s.buffers.back().get();
  }
  return *tl_buffer;
}

void append_double(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  out += buf;
}

}  // namespace

void set_tracing_enabled(bool enabled) noexcept {
  state().enabled.store(enabled, std::memory_order_relaxed);
}

bool tracing_enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

namespace detail {

void record_span(const char* name, double start_seconds, double dur_seconds) {
  ThreadBuffer& buffer = this_buffer();
  if (buffer.events.capacity() == buffer.events.size()) {
    buffer.events.reserve(buffer.events.size() + 1024);
  }
  buffer.events.push_back(TraceEvent{name, start_seconds, dur_seconds, buffer.tid});
}

}  // namespace detail

std::string trace_json() {
  std::vector<TraceEvent> events;
  {
    TraceState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::size_t total = 0;
    for (const auto& buffer : s.buffers) total += buffer->events.size();
    events.reserve(total);
    for (const auto& buffer : s.buffers) {
      events.insert(events.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  // Stable order for diffable output: by start time, then thread, then name.
  std::sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.start_seconds != b.start_seconds) return a.start_seconds < b.start_seconds;
    if (a.tid != b.tid) return a.tid < b.tid;
    return std::strcmp(a.name, b.name) < 0;
  });

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "\n {\"name\": \"";
    out += json_escape(e.name);
    out += "\", \"cat\": \"storsim\", \"ph\": \"X\", \"ts\": ";
    append_double(out, e.start_seconds * 1e6);  // microseconds
    out += ", \"dur\": ";
    append_double(out, e.dur_seconds * 1e6);
    out += ", \"pid\": 1, \"tid\": ";
    out += std::to_string(e.tid);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

}  // namespace storsubsim::obs
