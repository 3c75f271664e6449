// The storsimd wire protocol: length-prefixed JSON frames over a unix
// socket (docs/SERVE.md).
//
// A frame is a 4-byte little-endian body length followed by that many bytes
// of strict RFC-8259 JSON (obs::parse_json — the same parser that validates
// run manifests). Bodies are capped at kMaxFrameBytes; a peer announcing a
// larger frame gets a typed `oversized` error and the connection is closed
// (the unread body makes resynchronization impossible).
//
// Request body:
//   {"endpoint": "afr" | "afr_by_class" | "correlation" | "tbf" |
//                "lifetime" | "query" | "stats",
//    "csv": bool,                     // optional, default false
//    "params": {                      // optional, `query` endpoint only
//      "type": "...", "class": "...", "family": "F",
//      "from_days": N, "to_days": N, "group_by": "class"|"type"|"family"}}
//
// Response body:
//   {"ok": true,  "endpoint": "...", "table": "..."}   // the report bytes
//   {"ok": false, "error": "<code>", "message": "..."}
//
// Error codes: `bad-frame`, `oversized`, `bad-json`, `bad-request`,
// `bad-param`, `unknown-endpoint`, `store-error`, `draining`, `busy`,
// `internal`.
// Unknown top-level or param keys are rejected (`bad-request`/`bad-param`)
// so a fuzzer cannot smuggle state the handler ignores.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/analysis_request.h"
#include "store/query.h"

namespace storsubsim::serve {

/// Frame body cap. Every legitimate request/response is far below this; the
/// cap bounds what a hostile peer can make the daemon buffer.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Bytes of the little-endian length prefix.
inline constexpr std::size_t kFramePrefixBytes = 4;

/// Outcome of reading one frame off a blocking fd, or of taking one off a
/// receive buffer.
enum class FrameStatus : std::uint8_t {
  kOk,         ///< body filled in
  kClosed,     ///< clean EOF on a frame boundary
  kTruncated,  ///< EOF inside a frame; for take_frame, frame not complete yet
  kOversized,  ///< announced length exceeds kMaxFrameBytes; body unread
  kIoError,    ///< hard read error
};

/// Reads one length-prefixed frame. Retries EINTR. `body` is reused
/// (resized, not reallocated once warm).
FrameStatus read_frame(int fd, std::string* body);

/// Pops the first complete frame off the front of `buffer` (bytes received
/// but not yet framed) into `body`. kTruncated leaves `buffer` untouched
/// until more bytes arrive; kOversized is decided from the prefix alone.
FrameStatus take_frame(std::string* buffer, std::string* body);

/// Writes prefix + body, handling partial writes and EINTR. False on error
/// (peer gone). `flags` are added to each send (MSG_DONTWAIT makes a full
/// socket buffer an error). Bodies above kMaxFrameBytes are never produced
/// by this codebase; callers must keep it that way.
[[nodiscard]] bool write_frame(int fd, std::string_view body, int flags = 0);

/// Raw query-endpoint parameters as they travel on the wire — the typed
/// core::RequestParams, aliased. Strings stay unparsed here so the client
/// renders exactly what the user typed; semantic validation is
/// core::AnalysisRequest::from_params, the same code the offline CLI runs.
using QueryParams = core::RequestParams;

struct Request {
  std::string endpoint;
  bool csv = false;
  QueryParams params;
};

/// Typed outcome of parsing/validating a request body — core::RequestError,
/// aliased. `code` is one of the wire error codes above; empty code means
/// success.
using RequestError = core::RequestError;

/// Parses and strictly validates a request body (syntax + types + key set).
/// Semantic validation of the params (unknown class name, ...) happens in
/// make_query so the error can carry the offline CLI's wording.
[[nodiscard]] RequestError parse_request(std::string_view body, Request* out);

/// Converts validated QueryParams into a store::Query via
/// core::AnalysisRequest::from_params — literally the code path that parses
/// `storsubsim store query` flags, which is the root of the "daemon rejects
/// exactly what the CLI rejects, same wording" guarantee.
[[nodiscard]] RequestError make_query(const QueryParams& params, store::Query* out);

/// Renders the request body JSON a Request describes (client side; also the
/// well-formed corpus seed for the protocol fuzz tests).
std::string render_request(const Request& request);

/// A parsed response body.
struct Response {
  bool ok = false;
  std::string endpoint;
  std::string table;       ///< report bytes when ok
  std::string error_code;  ///< wire error code when !ok
  std::string message;
};

std::string render_ok_response(std::string_view endpoint, std::string_view table);
std::string render_error_response(std::string_view code, std::string_view message);

/// Parses a response body; false when it is not valid response JSON.
[[nodiscard]] bool parse_response(std::string_view body, Response* out);

}  // namespace storsubsim::serve
