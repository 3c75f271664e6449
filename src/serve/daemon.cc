#include "serve/daemon.h"

#include <cerrno>
#include <cstring>
#include <map>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
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

/// File descriptors held back from the connection budget: stdio, the listen
/// socket, the drain and wake pipes, shard reopens on the pool workers, the
/// accepted fd a `busy` answer goes out on, and obs manifest/trace files.
constexpr rlim_t kReservedFds = 64;

/// A worker writing to a peer that stopped reading its answers gives up
/// after this long, so such a peer cannot hold a pool worker for good.
constexpr long kWriteTimeoutSeconds = 10;

/// Bytes one recv() takes off a readable connection (or the wake pipe).
constexpr std::size_t kRecvChunk = 64 * 1024;

[[nodiscard]] store::Error errno_error(std::string_view what) {
  std::string detail(what);
  detail.append(": ").append(std::strerror(errno));
  return store::make_error(store::ErrorCode::kIo, detail, 0);
}

/// Best-effort error frame from the loop on a connection it closes right
/// after. Non-blocking, so a peer that stopped reading cannot stall the
/// loop; a failed send just means the peer sees only the close.
void send_error(int fd, std::string_view code, std::string_view message) {
  static_cast<void>(write_frame(fd, render_error_response(code, message), MSG_DONTWAIT));
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

Daemon::~Daemon() {
  request_drain();
  pool_.reset();  // no worker may touch the wake pipe after it closes
  close_fds();
}

void Daemon::close_fds() noexcept {
  if (listen_fd_ >= 0) ::unlink(options_.socket_path.c_str());
  for (int* fd : {&listen_fd_, &drain_fds_[0], &drain_fds_[1], &wake_fds_[0], &wake_fds_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
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
  connections_peak_ = obs::registry().gauge("serve.connections.peak");
  connections_shed_ = obs::registry().counter(
      "serve.connections.shed", obs::Stability::kSchedulingDependent);
  queue_wait_us_ = obs::registry().histogram(
      "serve.queue_wait_us", obs::Stability::kSchedulingDependent);

  // Every open connection holds one fd; the budget is what the soft limit
  // leaves after the reserve, so accept() never fails with EMFILE.
  rlimit files{};
  if (::getrlimit(RLIMIT_NOFILE, &files) != 0) return errno_error("getrlimit");
  if (files.rlim_cur <= kReservedFds) {
    return store::make_error(store::ErrorCode::kBadValue,
                             "open-file limit leaves no room for connections", 0);
  }
  connection_budget_ = static_cast<std::size_t>(files.rlim_cur - kReservedFds);

  if (::pipe2(drain_fds_, O_NONBLOCK | O_CLOEXEC) != 0 ||
      ::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    return errno_error("cannot create pipe");
  }

  sockaddr_un addr{};
  if (options.socket_path.empty() ||
      options.socket_path.size() >= sizeof(addr.sun_path)) {
    std::string detail("socket path unusable (empty or too long): ");
    detail.append(options.socket_path);
    return store::make_error(store::ErrorCode::kBadValue, detail, 0);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
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
  struct Connection {
    std::string pending;  ///< received bytes not yet cut into frames
    bool busy = false;    ///< a request is in flight: out of the poll set
  };
  std::map<int, Connection> connections;
  // Hands the next buffered frame to the pool, so an idle connection never
  // holds a complete one: EOF on it is either clean or mid-frame.
  const auto advance = [&](int fd) {
    Connection& conn = connections.at(fd);
    std::string body;
    const FrameStatus status = take_frame(&conn.pending, &body);
    if (status == FrameStatus::kOk) {
      conn.busy = true;
      submit(fd, std::move(body));
    } else if (status == FrameStatus::kOversized) {
      // The body is never read, so the stream cannot be resynchronized.
      send_error(fd, "oversized", "frame length exceeds the 1 MiB cap");
      ::close(fd);
      connections.erase(fd);
    }
  };

  store::Error result;
  std::vector<pollfd> fds;
  std::vector<int> answered;
  char chunk[kRecvChunk];
  for (;;) {
    fds.assign({{drain_fds_[0], POLLIN, 0}, {wake_fds_[0], POLLIN, 0},
                {listen_fd_, POLLIN, 0}});
    for (const auto& [fd, conn] : connections) {
      if (!conn.busy) fds.push_back({fd, POLLIN, 0});
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      result = errno_error("poll");
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // drain requested
    if ((fds[1].revents & POLLIN) != 0) {
      while (::read(wake_fds_[0], chunk, sizeof(chunk)) > 0) {
      }
      {
        std::lock_guard<std::mutex> guard(answered_mutex_);
        answered.swap(answered_);
      }
      for (const int fd : answered) {
        connections.at(fd).busy = false;
        advance(fd);  // a pipelined request may already be buffered
      }
      answered.clear();
    }
    for (std::size_t i = 3; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const int fd = fds[i].fd;
      const ssize_t got = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (got > 0) {
        connections.at(fd).pending.append(chunk, static_cast<std::size_t>(got));
        advance(fd);
      } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
        if (got == 0 && !connections.at(fd).pending.empty()) {
          send_error(fd, "bad-frame", "truncated frame");
        }
        ::close(fd);
        connections.erase(fd);
      }
    }
    // Accept last, so a slot freed by a close in this round is reusable.
    if ((fds[2].revents & POLLIN) != 0) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd >= 0 && connections.size() >= connection_budget_) {
        send_error(fd, "busy", "connection limit reached; retry later");
        ::close(fd);
        connections_shed_.add(1);
      } else if (fd >= 0) {
        const timeval timeout{kWriteTimeoutSeconds, 0};
        (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
        connections.emplace(fd, Connection{});
        connections_peak_.update_max(connections.size());
      }
    }
  }

  // Drain: stop accepting, close the idle connections, let the pool finish
  // the in-flight requests (one still queued answers `draining`), then
  // close the connections those answers went out on.
  draining_.store(true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  for (const auto& [fd, conn] : connections) {
    if (!conn.busy) ::close(fd);
  }
  pool_.reset();
  for (const auto& [fd, conn] : connections) {
    if (conn.busy) ::close(fd);
  }
  return result;
}

void Daemon::request_drain() noexcept {
  draining_.store(true);
  if (drain_fds_[1] >= 0) {
    const char byte = 'd';
    const ssize_t rc = ::write(drain_fds_[1], &byte, 1);
    static_cast<void>(rc);  // pipe full means a drain is already signaled
  }
}

void Daemon::submit(int fd, std::string body) {
  const double submitted = obs::now_seconds();
  pool_->submit([this, fd, body = std::move(body), submitted] {
    queue_wait_us_.observe(
        static_cast<std::uint64_t>((obs::now_seconds() - submitted) * 1e6));
    // handle_request never throws. A failed write shuts the socket down, so
    // the loop sees EOF and closes it: only the loop ever closes an fd.
    if (!write_frame(fd, handle_request(body))) ::shutdown(fd, SHUT_RDWR);
    {
      std::lock_guard<std::mutex> guard(answered_mutex_);
      answered_.push_back(fd);
    }
    const char byte = 'w';
    const ssize_t rc = ::write(wake_fds_[1], &byte, 1);
    static_cast<void>(rc);  // pipe full means the loop is already woken
  });
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
  const auto statistic = core::statistic_from_endpoint(endpoint);
  if (!statistic.has_value() && endpoint != "stats" && endpoint != "replicate_summary") {
    std::string message("unknown endpoint '");
    message.append(request.endpoint).append("'");
    return render_error_response("unknown-endpoint", message);
  }
  if (!request.params.empty() && statistic != core::StatisticId::kQuery) {
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
  } else if (statistic == core::StatisticId::kQuery) {
    response = run_store_query(request);
  } else if (endpoint == "replicate_summary") {
    Request canonical = request;
    canonical.endpoint = endpoint;
    response = run_replicate_summary(canonical);
  } else {
    Request canonical = request;
    canonical.endpoint = endpoint;
    response = run_analysis(canonical, *statistic);
  }

  const double seconds = span.stop();
  std::string hist_name("serve.latency_us.");
  hist_name.append(endpoint);
  obs::registry()
      .histogram(hist_name, obs::Stability::kSchedulingDependent)
      .observe(static_cast<std::uint64_t>(seconds * 1e6));
  return response;
}

std::string Daemon::run_analysis(const Request& request, core::StatisticId statistic) {
  // The typed request renders through core::render_statistic — the same
  // entry point `storsubsim analyze` uses, which is the byte-identity
  // guarantee by construction.
  core::AnalysisRequest analysis;
  if (RequestError err = core::AnalysisRequest::from_params(statistic, request.params,
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
  // One arena per pool worker: the pool size bounds how many exist.
  thread_local store::ScanScratch scratch;
  store::QueryRun run(query, &scratch);
  // Shard-at-a-time, pinned only while scanned: a query over a huge fleet
  // stays inside the --max-open-shards budget.
  for (std::size_t i = 0; i < store_.shard_count(); ++i) {
    if (store::Error err = lru_->pin(i); !err.ok()) {
      return render_error_response("store-error", err.describe());
    }
    run.scan(store_.shard(i));
    lru_->unpin(i);
  }
  const store::QueryResult result = run.finish(store_.exposure());
  return render_ok_response(request.endpoint,
                            core::render_query_result(result, request.csv));
}

}  // namespace storsubsim::serve
