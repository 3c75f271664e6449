#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

#include "obs/json.h"

namespace storsubsim::serve {

namespace {

// serve sits on the query hot path, so strings are built by appending into
// one buffer — no stream objects, no std::to_string, no literal
// concatenation (the same discipline storsim_lint enforces in src/store).

void append_f64(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  out.append(obs::json_escape(text));
  out.push_back('"');
}

[[nodiscard]] bool read_exact(int fd, char* buf, std::size_t n, bool* saw_eof) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      *saw_eof = true;
      return got == 0;  // "clean" only when nothing of this read arrived
    }
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

RequestError request_error(std::string_view code, std::string_view message) {
  RequestError err;
  err.code.assign(code);
  err.message.assign(message);
  return err;
}

[[nodiscard]] bool json_bool(const obs::JsonValue& value, bool* out) {
  if (value.type != obs::JsonValue::Type::kBool) return false;
  *out = value.boolean;
  return true;
}

}  // namespace

FrameStatus read_frame(int fd, std::string* body) {
  char prefix[kFramePrefixBytes];
  bool saw_eof = false;
  if (!read_exact(fd, prefix, sizeof(prefix), &saw_eof)) {
    return saw_eof ? FrameStatus::kTruncated : FrameStatus::kIoError;
  }
  if (saw_eof) return FrameStatus::kClosed;
  std::uint32_t length = 0;
  std::memcpy(&length, prefix, sizeof(length));  // wire format is little-endian
  if (length > kMaxFrameBytes) return FrameStatus::kOversized;
  body->resize(length);
  if (length == 0) return FrameStatus::kOk;
  saw_eof = false;
  if (!read_exact(fd, body->data(), length, &saw_eof)) {
    return saw_eof ? FrameStatus::kTruncated : FrameStatus::kIoError;
  }
  return FrameStatus::kOk;
}

FrameStatus take_frame(std::string* buffer, std::string* body) {
  if (buffer->size() < kFramePrefixBytes) return FrameStatus::kTruncated;
  std::uint32_t length = 0;
  std::memcpy(&length, buffer->data(), sizeof(length));  // little-endian
  if (length > kMaxFrameBytes) return FrameStatus::kOversized;
  if (buffer->size() - kFramePrefixBytes < length) return FrameStatus::kTruncated;
  body->assign(*buffer, kFramePrefixBytes, length);
  buffer->erase(0, kFramePrefixBytes + length);
  return FrameStatus::kOk;
}

bool write_frame(int fd, std::string_view body, int flags) {
  const auto length = static_cast<std::uint32_t>(body.size());
  char prefix[kFramePrefixBytes];
  std::memcpy(prefix, &length, sizeof(length));
  const auto write_all = [fd, flags](const char* data, std::size_t n) {
    std::size_t sent = 0;
    while (sent < n) {
      // MSG_NOSIGNAL: a peer that closed mid-response must yield EPIPE, not
      // a process-killing SIGPIPE (the daemon outlives rude clients).
      const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL | flags);
      if (w >= 0) {
        sent += static_cast<std::size_t>(w);
        continue;
      }
      if (errno == EINTR) continue;
      return false;
    }
    return true;
  };
  return write_all(prefix, sizeof(prefix)) && write_all(body.data(), body.size());
}

RequestError parse_request(std::string_view body, Request* out) {
  std::string parse_message;
  const auto doc = obs::parse_json(body, &parse_message);
  if (!doc.has_value()) return request_error("bad-json", parse_message);
  if (!doc->is_object()) {
    return request_error("bad-request", "request body must be a JSON object");
  }

  Request request;
  bool have_endpoint = false;
  for (const auto& [key, value] : doc->object) {
    if (key == "endpoint") {
      if (!value.is_string()) {
        return request_error("bad-request", "'endpoint' must be a string");
      }
      request.endpoint = value.string;
      have_endpoint = true;
    } else if (key == "csv") {
      if (!json_bool(value, &request.csv)) {
        return request_error("bad-request", "'csv' must be a boolean");
      }
    } else if (key == "params") {
      if (!value.is_object()) {
        return request_error("bad-request", "'params' must be an object");
      }
      for (const auto& [pkey, pvalue] : value.object) {
        if (pkey == "type" || pkey == "class" || pkey == "family" ||
            pkey == "group_by") {
          if (!pvalue.is_string()) {
            std::string message("param '");
            message.append(pkey).append("' must be a string");
            return request_error("bad-param", message);
          }
          if (pkey == "type") request.params.type = pvalue.string;
          if (pkey == "class") request.params.cls = pvalue.string;
          if (pkey == "family") request.params.family = pvalue.string;
          if (pkey == "group_by") request.params.group_by = pvalue.string;
        } else if (pkey == "from_days" || pkey == "to_days") {
          if (!pvalue.is_number()) {
            std::string message("param '");
            message.append(pkey).append("' must be a number");
            return request_error("bad-param", message);
          }
          if (pkey == "from_days") request.params.from_days = pvalue.number;
          if (pkey == "to_days") request.params.to_days = pvalue.number;
        } else {
          std::string message("unknown param '");
          message.append(pkey).append("'");
          return request_error("bad-param", message);
        }
      }
    } else {
      std::string message("unknown request key '");
      message.append(key).append("'");
      return request_error("bad-request", message);
    }
  }
  if (!have_endpoint) {
    return request_error("bad-request", "missing 'endpoint'");
  }
  *out = std::move(request);
  return RequestError{};
}

RequestError make_query(const QueryParams& params, store::Query* out) {
  // One validator for every front end: the daemon rejects exactly what the
  // offline CLI rejects, same wording, because they run the same code.
  core::AnalysisRequest request;
  if (RequestError err = core::AnalysisRequest::from_params(
          core::StatisticId::kQuery, params, false, &request);
      !err.ok()) {
    return err;
  }
  *out = request.query;
  return RequestError{};
}

std::string render_request(const Request& request) {
  std::string out;
  out.reserve(128);
  out.append("{\"endpoint\":");
  append_json_string(out, request.endpoint);
  if (request.csv) out.append(",\"csv\":true");
  if (!request.params.empty()) {
    out.append(",\"params\":{");
    bool first = true;
    const auto comma = [&first, &out] {
      if (!first) out.push_back(',');
      first = false;
    };
    if (!request.params.type.empty()) {
      comma();
      out.append("\"type\":");
      append_json_string(out, request.params.type);
    }
    if (!request.params.cls.empty()) {
      comma();
      out.append("\"class\":");
      append_json_string(out, request.params.cls);
    }
    if (!request.params.family.empty()) {
      comma();
      out.append("\"family\":");
      append_json_string(out, request.params.family);
    }
    if (request.params.from_days.has_value()) {
      comma();
      out.append("\"from_days\":");
      append_f64(out, *request.params.from_days);
    }
    if (request.params.to_days.has_value()) {
      comma();
      out.append("\"to_days\":");
      append_f64(out, *request.params.to_days);
    }
    if (!request.params.group_by.empty()) {
      comma();
      out.append("\"group_by\":");
      append_json_string(out, request.params.group_by);
    }
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

std::string render_ok_response(std::string_view endpoint, std::string_view table) {
  std::string out;
  out.reserve(table.size() + 64);
  out.append("{\"ok\":true,\"endpoint\":");
  append_json_string(out, endpoint);
  out.append(",\"table\":");
  append_json_string(out, table);
  out.push_back('}');
  return out;
}

std::string render_error_response(std::string_view code, std::string_view message) {
  std::string out;
  out.reserve(message.size() + 48);
  out.append("{\"ok\":false,\"error\":");
  append_json_string(out, code);
  out.append(",\"message\":");
  append_json_string(out, message);
  out.push_back('}');
  return out;
}

bool parse_response(std::string_view body, Response* out) {
  const auto doc = obs::parse_json(body);
  if (!doc.has_value() || !doc->is_object()) return false;
  const auto* ok = doc->find("ok");
  if (ok == nullptr || ok->type != obs::JsonValue::Type::kBool) return false;
  Response response;
  response.ok = ok->boolean;
  if (response.ok) {
    const auto* endpoint = doc->find("endpoint");
    const auto* table = doc->find("table");
    if (endpoint == nullptr || !endpoint->is_string() || table == nullptr ||
        !table->is_string()) {
      return false;
    }
    response.endpoint = endpoint->string;
    response.table = table->string;
  } else {
    const auto* code = doc->find("error");
    const auto* message = doc->find("message");
    if (code == nullptr || !code->is_string() || message == nullptr ||
        !message->is_string()) {
      return false;
    }
    response.error_code = code->string;
    response.message = message->string;
  }
  *out = std::move(response);
  return true;
}

}  // namespace storsubsim::serve
