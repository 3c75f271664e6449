// Blocking storsimd client: one unix-socket connection, framed
// request/response calls. Used by `storsubsim client`, the serve tests,
// and bench/serve_bench. Transport and protocol failures surface as typed
// store::Error (kIo = transport, kBadValue = malformed peer); daemon-side
// errors arrive as a parsed Response with ok == false.
#pragma once

#include <string>
#include <string_view>

#include "serve/protocol.h"
#include "store/format.h"

namespace storsubsim::serve {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a listening daemon. Reconnecting an already-connected
  /// client closes the old connection first.
  [[nodiscard]] store::Error connect(const std::string& socket_path);
  void close() noexcept;

  /// One raw framed round trip: writes `request_body`, reads the response
  /// frame into `response_body`. The connection is closed on any transport
  /// error (the stream is unusable after one).
  // storsim-lint: allow(unused-export) reason=docs/API.md entry (the raw framed round trip)
  [[nodiscard]] store::Error call(std::string_view request_body,
                                  std::string* response_body);

  /// Typed round trip: renders the request, calls, parses the response.
  /// A response that is not valid response JSON yields kBadValue.
  [[nodiscard]] store::Error request(const Request& request, Response* response);

 private:
  int fd_ = -1;
};

}  // namespace storsubsim::serve
