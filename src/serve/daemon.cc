#include "serve/daemon.h"

#include <cerrno>
#include <condition_variable>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/analysis_render.h"
#include "core/analysis_request.h"
#include "core/source.h"
#include "obs/obs.h"
#include "replicate/table.h"

namespace storsubsim::serve {

namespace {

/// Seconds a blocked mid-frame read waits before the connection is treated
/// as dead (SO_RCVTIMEO backstop — the poll loop handles the idle case).
constexpr long kReadTimeoutSeconds = 30;

[[nodiscard]] store::Error errno_error(std::string_view what) {
  std::string detail(what);
  detail.append(": ").append(std::strerror(errno));
  return store::make_error(store::ErrorCode::kIo, detail, 0);
}

/// Best-effort error frame on a connection that closes right after; a
/// failed send means the peer is already gone, which the close handles.
void send_error(int fd, std::string_view code, std::string_view message) {
  if (!write_frame(fd, render_error_response(code, message))) {
    return;
  }
}

/// Unpins every shard on scope exit, exception-safe (an analysis endpoint
/// must never leave pins behind).
struct PinAllGuard {
  ShardLru* lru;
  ~PinAllGuard() {
    if (lru != nullptr) lru->unpin_all();
  }
};

}  // namespace

std::unique_ptr<store::ScanScratch> ScratchPool::acquire() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (!free_.empty()) {
      auto scratch = std::move(free_.back());
      free_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<store::ScanScratch>();  // cold path only
}

void ScratchPool::release(std::unique_ptr<store::ScanScratch> scratch) {
  std::lock_guard<std::mutex> guard(mutex_);
  free_.push_back(std::move(scratch));
}

Daemon::~Daemon() {
  request_drain();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> guard(connections_mutex_);
    conns.swap(connections_);
  }
  for (auto& t : conns) t.join();
  close_fds();
}

void Daemon::close_fds() noexcept {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (drain_read_fd_ >= 0) {
    ::close(drain_read_fd_);
    drain_read_fd_ = -1;
  }
  if (drain_write_fd_ >= 0) {
    ::close(drain_write_fd_);
    drain_write_fd_ = -1;
  }
}

store::Error Daemon::start(const ServeOptions& options) {
  options_ = options;

  // A single store file opens as a one-shard store, so both input shapes
  // share one backend; a path that is neither yields kBadMagic.
  if (store::Error err = store_.open(options.input); !err.ok()) return err;
  lru_ = std::make_unique<ShardLru>(&store_, options.max_open_shards);
  // Validate every shard up front — a corrupt shard must fail start(),
  // not some query hours later. The LRU evicts as it goes, so peak
  // memory during validation respects the cap.
  for (std::size_t i = 0; i < store_.shard_count(); ++i) {
    if (store::Error err = lru_->pin(i); !err.ok()) return err;
    lru_->unpin(i);
  }

  if (!options.replicates.empty()) {
    if (store::Error err = replicate::read_table(options.replicates, &replicate_summary_);
        !err.ok()) {
      return err;
    }
    have_replicates_ = true;
    // Provenance onto the stats endpoint: which substream seeded the
    // replicates, how many ran, and why the run stopped. Deterministic —
    // they describe the loaded table, not request scheduling.
    obs::registry().counter("serve.replicate.replicates")
        .add(replicate_summary_.replicates);
    obs::registry().counter("serve.replicate.seed")
        .add(replicate_summary_.options.seed);
    std::string stream_counter("serve.replicate.seed_stream.");
    stream_counter.append(replicate::kSeedStream);
    obs::registry().counter(stream_counter).add(1);
    std::string reason_counter("serve.replicate.stop_reason.");
    reason_counter.append(replicate::to_string(replicate_summary_.stop_reason));
    obs::registry().counter(reason_counter).add(1);
  }

  pool_ = std::make_unique<util::ThreadPool>(
      options.threads != 0 ? options.threads : util::thread_count());

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) return errno_error("cannot create drain pipe");
  drain_read_fd_ = pipe_fds[0];
  drain_write_fd_ = pipe_fds[1];

  sockaddr_un addr{};
  if (options.socket_path.empty() ||
      options.socket_path.size() >= sizeof(addr.sun_path)) {
    std::string detail("socket path unusable (empty or too long): ");
    detail.append(options.socket_path);
    return store::make_error(store::ErrorCode::kBadValue, detail, 0);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return errno_error("cannot create socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ::unlink(options.socket_path.c_str());  // replace a stale socket
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string what("cannot bind ");
    what.append(options.socket_path);
    return errno_error(what);
  }
  if (::listen(listen_fd_, 128) != 0) return errno_error("cannot listen");
  return store::Error{};
}

store::Error Daemon::serve() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {drain_read_fd_, POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      draining_.store(true);
      return errno_error("poll on listen socket");
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;  // EINTR / peer vanished between poll and accept
    timeval tv{};
    tv.tv_sec = kReadTimeoutSeconds;
    (void)::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::lock_guard<std::mutex> guard(connections_mutex_);
    connections_.emplace_back([this, conn] { connection_loop(conn); });
  }
  draining_.store(true);
  // Stop accepting first (close + unlink), then let in-flight requests
  // finish: the drain pipe stays readable, so every idle connection's poll
  // wakes; busy connections complete their current request before looking.
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> guard(connections_mutex_);
    conns.swap(connections_);
  }
  for (auto& t : conns) t.join();
  return store::Error{};
}

void Daemon::request_drain() noexcept {
  draining_.store(true);
  if (drain_write_fd_ >= 0) {
    const char byte = 'd';
    const ssize_t rc = ::write(drain_write_fd_, &byte, 1);
    static_cast<void>(rc);  // pipe full means a drain is already signaled
  }
}

void Daemon::connection_loop(int fd) {
  std::string body;
  for (;;) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {drain_read_fd_, POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const bool frame_ready = (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    if (!frame_ready) {
      if ((fds[1].revents & POLLIN) != 0) break;  // draining and idle: close
      continue;
    }
    const FrameStatus status = read_frame(fd, &body);
    if (status == FrameStatus::kClosed || status == FrameStatus::kIoError) break;
    if (status == FrameStatus::kTruncated) {
      send_error(fd, "bad-frame", "truncated frame");
      break;
    }
    if (status == FrameStatus::kOversized) {
      // The oversized body was never read, so the stream cannot be
      // resynchronized — answer typed and close.
      send_error(fd, "oversized", "frame length exceeds the 1 MiB cap");
      break;
    }

    // Execute on the pool; this connection thread just frames and waits.
    std::mutex done_mutex;
    std::condition_variable done_cv;
    bool done = false;
    std::string response;
    pool_->submit([this, &body, &done_mutex, &done_cv, &done, &response] {
      response = handle_request(body);  // never throws
      // Notify under the mutex: the waiter owns these stack objects and may
      // destroy them the moment it can re-acquire the lock and see `done`,
      // so the signal must complete before the lock is released.
      std::lock_guard<std::mutex> guard(done_mutex);
      done = true;
      done_cv.notify_one();
    });
    {
      std::unique_lock<std::mutex> lock(done_mutex);
      done_cv.wait(lock, [&done] { return done; });
    }
    if (!write_frame(fd, response)) break;
  }
  ::close(fd);
}

std::string Daemon::handle_request(std::string_view body) {
  try {
    Request request;
    if (RequestError err = parse_request(body, &request); !err.ok()) {
      return render_error_response(err.code, err.message);
    }
    return dispatch(request);
  } catch (const std::exception& e) {
    return render_error_response("internal", e.what());
  } catch (...) {
    return render_error_response("internal", "unknown error");
  }
}

std::string Daemon::dispatch(const Request& request) {
  // Accept "/stats" as an alias so `storsubsim client --endpoint /stats`
  // reads naturally; the canonical name is "stats".
  const std::string endpoint =
      request.endpoint == "/stats" ? std::string("stats") : request.endpoint;
  const bool is_analysis = endpoint == "afr" || endpoint == "afr_by_class" ||
                           endpoint == "correlation" || endpoint == "tbf" ||
                           endpoint == "lifetime";
  if (!is_analysis && endpoint != "query" && endpoint != "stats" &&
      endpoint != "replicate_summary") {
    std::string message("unknown endpoint '");
    message.append(request.endpoint).append("'");
    return render_error_response("unknown-endpoint", message);
  }
  if (!request.params.empty() && endpoint != "query") {
    return render_error_response("bad-request",
                                 "params are only valid for the query endpoint");
  }
  if (draining_.load()) {
    return render_error_response("draining", "daemon is draining");
  }

  obs::Span span("serve.request");
  STORSIM_OBS_COUNTER(c_requests, "serve.requests",
                      ::storsubsim::obs::Stability::kSchedulingDependent);
  STORSIM_OBS_ADD(c_requests, 1);
  std::string counter_name("serve.endpoint.");
  counter_name.append(endpoint);
  obs::registry()
      .counter(counter_name, obs::Stability::kSchedulingDependent)
      .add(1);

  std::string response;
  if (endpoint == "stats") {
    response = render_ok_response(endpoint, obs::registry().snapshot().to_text());
  } else if (endpoint == "query") {
    response = run_store_query(request);
  } else if (endpoint == "replicate_summary") {
    Request canonical = request;
    canonical.endpoint = endpoint;
    response = run_replicate_summary(canonical);
  } else {
    Request canonical = request;
    canonical.endpoint = endpoint;
    response = run_analysis(canonical);
  }

  const double seconds = span.stop();
  std::string hist_name("serve.latency_us.");
  hist_name.append(endpoint);
  obs::registry()
      .histogram(hist_name, obs::Stability::kSchedulingDependent)
      .observe(static_cast<std::uint64_t>(seconds * 1e6));
  return response;
}

std::string Daemon::run_analysis(const Request& request) {
  // dispatch() vetted the endpoint name, so the lookup cannot fail; the
  // typed request then renders through core::render_statistic — the same
  // entry point `storsubsim analyze` uses, which is the byte-identity
  // guarantee by construction.
  const auto statistic = core::statistic_from_endpoint(request.endpoint);
  if (!statistic.has_value()) {
    std::string message("unknown endpoint '");
    message.append(request.endpoint).append("'");
    return render_error_response("unknown-endpoint", message);
  }
  core::AnalysisRequest analysis;
  if (RequestError err = core::AnalysisRequest::from_params(*statistic, request.params,
                                                            request.csv, &analysis);
      !err.ok()) {
    return render_error_response(err.code, err.message);
  }

  // Whole-fleet analyses read every shard; pin them all so the Source
  // precondition (every shard open) holds and no eviction can race a read.
  if (store::Error err = lru_->pin_all(); !err.ok()) {
    return render_error_response("store-error", err.describe());
  }
  PinAllGuard guard{lru_.get()};
  const core::Source source(store_);
  return render_ok_response(request.endpoint, core::render_statistic(source, analysis));
}

std::string Daemon::run_replicate_summary(const Request& request) {
  if (!have_replicates_) {
    return render_error_response("bad-request",
                                 "daemon was started without --replicates");
  }
  return render_ok_response(
      request.endpoint, replicate::render_summary(replicate_summary_, request.csv));
}

std::string Daemon::run_store_query(const Request& request) {
  store::Query query;
  if (RequestError err = make_query(request.params, &query); !err.ok()) {
    return render_error_response(err.code, err.message);
  }
  auto scratch = scratch_pool_.acquire();
  store::QueryRun run(query, scratch.get());
  // Shard-at-a-time, pinned only while scanned: a query over a huge fleet
  // stays inside the --max-open-shards budget.
  for (std::size_t i = 0; i < store_.shard_count(); ++i) {
    if (store::Error err = lru_->pin(i); !err.ok()) {
      scratch_pool_.release(std::move(scratch));
      return render_error_response("store-error", err.describe());
    }
    run.scan(store_.shard(i));
    lru_->unpin(i);
  }
  const store::QueryResult result = run.finish(store_.exposure());
  scratch_pool_.release(std::move(scratch));
  return render_ok_response(request.endpoint,
                            core::render_query_result(result, request.csv));
}

}  // namespace storsubsim::serve
