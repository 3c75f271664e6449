// storsimd suite: an in-process serve::Daemon must answer concurrent
// clients byte-identically to the offline renderers, survive arbitrary
// garbage on the wire with typed errors (never a crash), drain gracefully,
// and keep its shard LRU within the --max-open-shards budget.
//
// The daemon under test is the real thing — real unix socket, real poll
// loop, real pool — driven from this process so the tests can also reach
// handle_request() and lru() directly. Scale 0.02 keeps the fixture build
// fast; byte-identity is scale-independent (the shards suite covers
// fidelity at 0.05).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis_render.h"
#include "core/pipeline.h"
#include "core/sharded_build.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "core/analysis_request.h"
#include "model/fleet_config.h"
#include "replicate/replicate.h"
#include "replicate/table.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "stats/rng.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/shards.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace replicate = storsubsim::replicate;
namespace serve = storsubsim::serve;
namespace store = storsubsim::store;
using storsubsim::stats::Rng;

namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

void remove_shard_dir(const std::string& dir) {
  store::ShardStore probe;
  if (probe.open(dir).ok()) {
    for (std::size_t s = 0; s < probe.shard_count(); ++s) {
      std::remove((dir + "/" + probe.info(s).file).c_str());
    }
  }
  std::remove((dir + "/" + std::string(store::kManifestFileName)).c_str());
  ::rmdir(dir.c_str());
}

/// A daemon plus the thread running its accept loop. start() returns with
/// the socket already bound and listening, so clients may connect before
/// the serve thread is scheduled; stop() drains and joins.
class DaemonHarness {
 public:
  ~DaemonHarness() { stop(); }

  [[nodiscard]] store::Error start(const std::string& input, const char* sock_name,
                                   std::size_t max_open_shards = 0,
                                   const std::string& replicates = "") {
    socket_path_ = temp_path(sock_name);
    serve::ServeOptions options;
    options.input = input;
    options.socket_path = socket_path_;
    options.max_open_shards = max_open_shards;
    options.replicates = replicates;
    options.threads = 4;
    auto err = daemon_.start(options);
    if (!err.ok()) return err;
    thread_ = std::thread([this] { serve_result_ = daemon_.serve(); });
    return store::make_error(store::ErrorCode::kOk, "");
  }

  void stop() {
    if (thread_.joinable()) {
      daemon_.request_drain();
      thread_.join();
      EXPECT_TRUE(serve_result_.ok()) << serve_result_.describe();
    }
  }

  serve::Daemon& daemon() { return daemon_; }
  const std::string& socket_path() const { return socket_path_; }

 private:
  serve::Daemon daemon_;
  std::thread thread_;
  std::string socket_path_;
  store::Error serve_result_;
};

/// Raw client socket for frame-level malformation tests (serve::Client
/// would refuse to produce broken frames).
int raw_connect(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    // MSG_NOSIGNAL: the daemon may close the connection (oversized frame,
    // bad frame) while the fuzzer is still writing; that must surface as
    // EPIPE here, not kill the test with SIGPIPE.
    const ssize_t w = ::send(fd, p, size, MSG_NOSIGNAL);
    if (w <= 0) return false;
    p += w;
    size -= static_cast<std::size_t>(w);
  }
  return true;
}

/// One length-prefixed frame as it travels on the wire.
std::string wire_frame(std::string_view body) {
  const auto length = static_cast<std::uint32_t>(body.size());
  std::string frame(reinterpret_cast<const char*>(&length), sizeof(length));
  frame.append(body);
  return frame;
}

/// A `/proc/self/status` field in its own unit (kB for Vm*, a count for
/// Threads).
std::uint64_t proc_status(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::stoull(line.substr(field.size() + 1));
    }
  }
  return 0;
}

/// Connects, sends one request, reads its answer, disconnects.
serve::Response one_shot(const std::string& socket_path, const char* endpoint) {
  serve::Client client;
  serve::Request request;
  request.endpoint = endpoint;
  serve::Response response;
  EXPECT_TRUE(client.connect(socket_path).ok());
  EXPECT_TRUE(client.request(request, &response).ok());
  return response;
}

class ServeSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new model::FleetConfig(model::standard_fleet_config(0.02, 20080226));
    auto run = core::simulate_and_analyze(*config_);
    mono_path_ = new std::string(temp_path("serve_mono.store"));
    ASSERT_TRUE(core::write_store(*mono_path_, run, 20080226, 0.02).ok());
    mono_ = new store::ShardStore;
    ASSERT_TRUE(mono_->open(*mono_path_).ok());

    dir_ = new std::string(temp_path("serve_shards"));
    core::ShardedBuildOptions options;
    options.shards = 3;
    ASSERT_TRUE(core::build_sharded_store(*dir_, *config_, options).ok());
  }
  static void TearDownTestSuite() {
    delete mono_;
    mono_ = nullptr;
    std::remove(mono_path_->c_str());
    delete mono_path_;
    mono_path_ = nullptr;
    remove_shard_dir(*dir_);
    delete dir_;
    dir_ = nullptr;
    delete config_;
    config_ = nullptr;
  }

  static const store::ShardStore& mono() { return *mono_; }
  static const std::string& mono_path() { return *mono_path_; }
  static const std::string& shard_dir() { return *dir_; }

  static model::FleetConfig* config_;
  static std::string* mono_path_;
  static store::ShardStore* mono_;
  static std::string* dir_;
};

model::FleetConfig* ServeSuite::config_ = nullptr;
std::string* ServeSuite::mono_path_ = nullptr;
store::ShardStore* ServeSuite::mono_ = nullptr;
std::string* ServeSuite::dir_ = nullptr;

/// The full request matrix a byte-identity client walks: every analysis
/// endpoint in both renderings, plus text and grouped/windowed queries.
struct Expected {
  serve::Request request;
  std::string table;
};

std::vector<Expected> expected_matrix(const store::ShardStore& mono) {
  const core::Source source(mono);
  std::vector<Expected> matrix;
  const char* endpoints[] = {"afr", "afr_by_class", "correlation", "tbf",
                             "lifetime", "vulnerability"};
  std::string (*renderers[])(const core::Source&, bool) = {
      core::render_afr_total, core::render_afr_by_class, core::render_correlation,
      core::render_tbf,       core::render_lifetime,     core::render_vulnerability};
  for (std::size_t e = 0; e < std::size(endpoints); ++e) {
    for (const bool csv : {false, true}) {
      Expected item;
      item.request.endpoint = endpoints[e];
      item.request.csv = csv;
      item.table = renderers[e](source, csv);
      matrix.push_back(std::move(item));
    }
  }
  // Queries: unfiltered, grouped, and a filtered time window.
  serve::QueryParams grouped;
  grouped.group_by = "class";
  serve::QueryParams windowed;
  windowed.type = "disk";
  windowed.from_days = 30;
  windowed.to_days = 300;
  for (const auto& params :
       {serve::QueryParams{}, grouped, windowed}) {
    for (const bool csv : {false, true}) {
      Expected item;
      item.request.endpoint = "query";
      item.request.csv = csv;
      item.request.params = params;
      store::Query query;
      EXPECT_TRUE(serve::make_query(params, &query).ok());
      item.table = core::render_query_result(store::run_query(mono, query), csv);
      matrix.push_back(std::move(item));
    }
  }
  return matrix;
}

/// Runs `clients` threads, each its own connection, each walking the whole
/// matrix `rounds` times. Mismatches are counted (EXPECT from worker
/// threads is not reliable) and the first diff is reported after the join.
void run_identity_clients(const std::string& socket_path,
                          const std::vector<Expected>& matrix,
                          std::size_t clients, std::size_t rounds) {
  std::atomic<std::size_t> transport_errors{0};
  std::atomic<std::size_t> mismatches{0};
  std::mutex first_diff_mutex;
  std::string first_diff;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      if (!client.connect(socket_path).ok()) {
        transport_errors.fetch_add(1);
        return;
      }
      // Stagger start offsets so the 16 clients are not in lockstep on the
      // same endpoint.
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < matrix.size(); ++i) {
          const auto& item = matrix[(i + c) % matrix.size()];
          serve::Response response;
          if (!client.request(item.request, &response).ok()) {
            transport_errors.fetch_add(1);
            return;
          }
          if (!response.ok || response.table != item.table ||
              response.endpoint != item.request.endpoint) {
            if (mismatches.fetch_add(1) == 0) {
              const std::lock_guard<std::mutex> lock(first_diff_mutex);
              first_diff = "endpoint " + item.request.endpoint + ": got\n" +
                           (response.ok ? response.table
                                        : response.error_code + ": " + response.message);
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u) << first_diff;
}

}  // namespace

// --- byte-identity -------------------------------------------------------

TEST_F(ServeSuite, SixteenConcurrentClientsMatchOfflineByteForByte) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_identity.sock").ok());
  run_identity_clients(harness.socket_path(), expected_matrix(mono()),
                       /*clients=*/16, /*rounds=*/3);
}

TEST_F(ServeSuite, ShardedDaemonMatchesTheMonolithicAnswers) {
  // Shard/mono equivalence is proven bit-identical by the shards suite, so
  // the monolithic renderers are the reference for both backends.
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(shard_dir(), "serve_shard_identity.sock").ok());
  ASSERT_TRUE(harness.daemon().sharded());
  run_identity_clients(harness.socket_path(), expected_matrix(mono()),
                       /*clients=*/8, /*rounds=*/2);
}

TEST_F(ServeSuite, HandleRequestAnswersWithoutASocket) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_inproc.sock").ok());
  serve::Response response;
  ASSERT_TRUE(
      serve::parse_response(harness.daemon().handle_request("{\"endpoint\":\"afr\"}"),
                            &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.table, core::render_afr_total(core::Source(mono()), false));

  ASSERT_TRUE(serve::parse_response(
      harness.daemon().handle_request("{\"endpoint\":\"stats\"}"), &response));
  EXPECT_TRUE(response.ok);
  EXPECT_NE(response.table.find("serve.requests"), std::string::npos);
  for (const char* metric : {"serve.connections.peak", "serve.connections.shed",
                             "serve.queue_wait_us"}) {
    EXPECT_NE(response.table.find(metric), std::string::npos) << metric;
  }
}

TEST_F(ServeSuite, VulnerabilityMatchesOfflineAnalyzeByteForByte) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_vulnerability.sock").ok());
  for (const bool csv : {false, true}) {
    const std::string out_path = temp_path("serve_vulnerability_cli.txt");
    const std::string command = std::string(STORSUBSIM_CLI_PATH) + " analyze --input " +
                                mono_path() + " --report vulnerability" +
                                (csv ? " --csv" : "") + " > " + out_path + " 2>/dev/null";
    ASSERT_EQ(std::system(command.c_str()), 0);
    std::ifstream in(out_path);
    const std::string offline((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    std::remove(out_path.c_str());
    ASSERT_FALSE(offline.empty());

    serve::Client client;
    serve::Request request;
    request.endpoint = "vulnerability";
    request.csv = csv;
    serve::Response response;
    ASSERT_TRUE(client.connect(harness.socket_path()).ok());
    ASSERT_TRUE(client.request(request, &response).ok());
    EXPECT_TRUE(response.ok) << response.message;
    EXPECT_EQ(response.table, offline) << (csv ? "csv" : "text");
  }
}

// --- protocol errors -----------------------------------------------------

TEST_F(ServeSuite, MalformedBodiesGetTypedErrors) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_badbody.sock").ok());
  const struct {
    const char* body;
    const char* code;
  } cases[] = {
      {"not json at all", "bad-json"},
      {"[1,2,3]", "bad-request"},
      {"{}", "bad-request"},
      {"{\"endpoint\":\"afr\",\"bogus\":1}", "bad-request"},
      {"{\"endpoint\":\"afr\",\"csv\":\"yes\"}", "bad-request"},
      {"{\"endpoint\":\"no_such\"}", "unknown-endpoint"},
      {"{\"endpoint\":\"afr\",\"params\":{\"type\":\"latent_sector_error\"}}",
       "bad-request"},  // params on a non-query endpoint
      {"{\"endpoint\":\"query\",\"params\":{\"type\":\"zzz\"}}", "bad-param"},
      {"{\"endpoint\":\"query\",\"params\":{\"group_by\":\"disk\"}}", "bad-param"},
      {"{\"endpoint\":\"query\",\"params\":{\"smuggled\":1}}", "bad-param"},
  };
  serve::Client client;
  ASSERT_TRUE(client.connect(harness.socket_path()).ok());
  for (const auto& c : cases) {
    std::string body;
    ASSERT_TRUE(client.call(c.body, &body).ok()) << c.body;
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(body, &response)) << body;
    EXPECT_FALSE(response.ok) << c.body;
    EXPECT_EQ(response.error_code, c.code) << c.body << " -> " << body;
    EXPECT_FALSE(response.message.empty()) << c.body;
  }
  // The connection survived ten consecutive errors: a good request still
  // answers on the same stream.
  serve::Request good;
  good.endpoint = "afr";
  serve::Response response;
  ASSERT_TRUE(client.request(good, &response).ok());
  EXPECT_TRUE(response.ok);
}

TEST_F(ServeSuite, TruncatedAndOversizedFramesGetTypedErrorsThenClose) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_badframe.sock").ok());

  {  // EOF inside the length prefix.
    const int fd = raw_connect(harness.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_all(fd, "\x08\x00", 2));
    ::shutdown(fd, SHUT_WR);
    std::string body;
    ASSERT_EQ(serve::read_frame(fd, &body), serve::FrameStatus::kOk);
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(body, &response));
    EXPECT_EQ(response.error_code, "bad-frame");
    EXPECT_EQ(serve::read_frame(fd, &body), serve::FrameStatus::kClosed);
    ::close(fd);
  }
  {  // EOF inside the body.
    const int fd = raw_connect(harness.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_all(fd, "\x10\x00\x00\x00{\"end", 9));
    ::shutdown(fd, SHUT_WR);
    std::string body;
    ASSERT_EQ(serve::read_frame(fd, &body), serve::FrameStatus::kOk);
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(body, &response));
    EXPECT_EQ(response.error_code, "bad-frame");
    ::close(fd);
  }
  {  // Announced length above the cap: typed error, body never read.
    const int fd = raw_connect(harness.socket_path());
    ASSERT_GE(fd, 0);
    const std::uint32_t huge = serve::kMaxFrameBytes + 1;
    ASSERT_TRUE(write_all(fd, &huge, sizeof(huge)));
    std::string body;
    ASSERT_EQ(serve::read_frame(fd, &body), serve::FrameStatus::kOk);
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(body, &response));
    EXPECT_EQ(response.error_code, "oversized");
    EXPECT_EQ(serve::read_frame(fd, &body), serve::FrameStatus::kClosed);
    ::close(fd);
  }

  // The daemon shrugged all of that off.
  serve::Client client;
  ASSERT_TRUE(client.connect(harness.socket_path()).ok());
  serve::Request good;
  good.endpoint = "lifetime";
  serve::Response response;
  ASSERT_TRUE(client.request(good, &response).ok());
  EXPECT_TRUE(response.ok);
}

TEST_F(ServeSuite, RandomFrameFuzzNeverKillsTheDaemon) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_fuzz.sock").ok());
  Rng rng(20080226, /*stream=*/0x5e17e);
  for (std::size_t round = 0; round < 64; ++round) {
    const int fd = raw_connect(harness.socket_path());
    ASSERT_GE(fd, 0) << "round " << round;
    // Random prefix (sometimes an honest length, sometimes a lie), random
    // body bytes. Every outcome — bad-json, bad-frame, oversized, clean
    // close — is acceptable; dying is not.
    const std::uint32_t announced = static_cast<std::uint32_t>(
        rng.below(2) == 0 ? rng.below(128) : rng.below(1u << 24));
    std::string blob(rng.below(128), '\0');
    for (auto& byte : blob) byte = static_cast<char>(rng.below(256));
    (void)write_all(fd, &announced, sizeof(announced));
    (void)write_all(fd, blob.data(), blob.size());
    ::shutdown(fd, SHUT_WR);
    std::string body;
    while (serve::read_frame(fd, &body) == serve::FrameStatus::kOk) {
    }
    ::close(fd);
  }
  serve::Client client;
  ASSERT_TRUE(client.connect(harness.socket_path()).ok());
  serve::Request good;
  good.endpoint = "afr";
  serve::Response response;
  ASSERT_TRUE(client.request(good, &response).ok());
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.table, core::render_afr_total(core::Source(mono()), false));
}

TEST(ServeProtocol, TakeFrameWaitsForEveryByteThenPopsInOrder) {
  const std::string first = "{\"endpoint\":\"afr\"}";
  const std::string second = "{\"endpoint\":\"stats\"}";
  const std::string wire = wire_frame(first) + wire_frame(second);
  const std::size_t first_end = serve::kFramePrefixBytes + first.size();
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    std::string buffer = wire.substr(0, split);
    std::string body;
    if (split < first_end) {
      EXPECT_EQ(serve::take_frame(&buffer, &body), serve::FrameStatus::kTruncated)
          << "split " << split;
      EXPECT_EQ(buffer, wire.substr(0, split)) << "split " << split;
      buffer.append(wire, split, std::string::npos);
    }
    ASSERT_EQ(serve::take_frame(&buffer, &body), serve::FrameStatus::kOk) << split;
    EXPECT_EQ(body, first);
    if (buffer.size() < wire.size() - first_end) {
      EXPECT_EQ(serve::take_frame(&buffer, &body), serve::FrameStatus::kTruncated);
      buffer = wire.substr(first_end);
    }
    ASSERT_EQ(serve::take_frame(&buffer, &body), serve::FrameStatus::kOk) << split;
    EXPECT_EQ(body, second);
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(serve::take_frame(&buffer, &body), serve::FrameStatus::kTruncated);
  }

  // An oversized length is refused from the prefix alone; exactly the cap
  // just waits for its body.
  std::string oversized = wire_frame("");
  const std::uint32_t huge = serve::kMaxFrameBytes + 1;
  std::memcpy(oversized.data(), &huge, sizeof(huge));
  std::string body;
  EXPECT_EQ(serve::take_frame(&oversized, &body), serve::FrameStatus::kOversized);
  std::string at_cap = oversized;
  const std::uint32_t cap = serve::kMaxFrameBytes;
  std::memcpy(at_cap.data(), &cap, sizeof(cap));
  EXPECT_EQ(serve::take_frame(&at_cap, &body), serve::FrameStatus::kTruncated);
}

TEST_F(ServeSuite, PipelinedFramesGetInOrderAnswers) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_pipeline.sock").ok());
  const int fd = raw_connect(harness.socket_path());
  ASSERT_GE(fd, 0);
  const std::string both = wire_frame("{\"endpoint\":\"afr\"}") +
                           wire_frame("{\"endpoint\":\"lifetime\"}");
  ASSERT_TRUE(write_all(fd, both.data(), both.size()));  // one send
  const core::Source source(mono());
  const struct {
    const char* endpoint;
    std::string table;
  } expected[] = {{"afr", core::render_afr_total(source, false)},
                  {"lifetime", core::render_lifetime(source, false)}};
  for (const auto& e : expected) {
    std::string body;
    ASSERT_EQ(serve::read_frame(fd, &body), serve::FrameStatus::kOk) << e.endpoint;
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(body, &response));
    EXPECT_TRUE(response.ok);
    EXPECT_EQ(response.endpoint, e.endpoint);
    EXPECT_EQ(response.table, e.table);
  }
  ::close(fd);
}

TEST_F(ServeSuite, PeersStalledMidFrameDoNotDelayOthers) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_stall.sock").ok());
  // As many stalled peers as pool workers (the harness runs 4): each sends a
  // prefix and part of the body, then goes quiet without closing.
  std::vector<int> stalled;
  for (int i = 0; i < 4; ++i) {
    const int fd = raw_connect(harness.socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_all(fd, "\x40\x00\x00\x00{\"endpoint\"", 15));
    stalled.push_back(fd);
  }
  const auto begin = std::chrono::steady_clock::now();
  const serve::Response response = one_shot(harness.socket_path(), "afr");
  const std::chrono::duration<double> waited = std::chrono::steady_clock::now() - begin;
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.table, core::render_afr_total(core::Source(mono()), false));
  EXPECT_LT(waited.count(), 1.0);
  for (const int fd : stalled) ::close(fd);
}

TEST_F(ServeSuite, ShortConnectionsKeepMemoryAndThreadsFlat) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_flat.sock").ok());
  // Warm-up: concurrent clients reach every pool worker, so each has made
  // its one-time malloc arena before the baseline is read.
  run_identity_clients(harness.socket_path(), expected_matrix(mono()),
                       /*clients=*/8, /*rounds=*/1);
  const std::uint64_t vm_before_kb = proc_status("VmSize");
  const std::uint64_t threads_before = proc_status("Threads");
  std::size_t failed = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!one_shot(harness.socket_path(), "stats").ok) ++failed;
  }
  EXPECT_EQ(failed, 0u);
  // Signed: the process may also hand memory back (VmSize shrinks).
  const auto vm_growth_kb = static_cast<std::int64_t>(proc_status("VmSize")) -
                            static_cast<std::int64_t>(vm_before_kb);
  EXPECT_LT(vm_growth_kb, 256 * 1024);
  EXPECT_EQ(proc_status("Threads"), threads_before);
}

TEST_F(ServeSuite, PastTheConnectionBudgetPeersAreAnsweredBusy) {
  // The budget comes from the soft open-file limit; lowering it before
  // start() makes it small enough to fill.
  struct RestoreLimit {
    rlimit saved{};
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } restore;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &restore.saved), 0);
  rlimit lowered = restore.saved;
  lowered.rlim_cur = 72;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  DaemonHarness harness;  // declared after `restore`, so it stops first
  const bool started = harness.start(mono_path(), "serve_busy.sock").ok();
  const std::size_t budget = harness.daemon().connection_budget();
  ASSERT_TRUE(started);
  ASSERT_GT(budget, 0u);
  ASSERT_LT(budget, 72u);

  std::vector<serve::Client> clients(budget);
  serve::Request request;
  request.endpoint = "stats";
  for (auto& client : clients) {
    serve::Response response;
    ASSERT_TRUE(client.connect(harness.socket_path()).ok());
    ASSERT_TRUE(client.request(request, &response).ok());
    ASSERT_TRUE(response.ok);
  }

  // The budget is full: the next peer is answered `busy` unprompted, then
  // closed.
  const int fd = raw_connect(harness.socket_path());
  ASSERT_GE(fd, 0);
  std::string body;
  ASSERT_EQ(serve::read_frame(fd, &body), serve::FrameStatus::kOk);
  serve::Response response;
  ASSERT_TRUE(serve::parse_response(body, &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "busy");
  EXPECT_NE(serve::read_frame(fd, &body), serve::FrameStatus::kOk);
  ::close(fd);

  // One connection closes; its slot serves a new peer. The daemon sees the
  // close on a later poll round than the connect may land in, so a `busy`
  // answer in between is retried.
  clients.back().close();
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    serve::Client client;
    ASSERT_TRUE(client.connect(harness.socket_path()).ok());
    served = client.request(request, &response).ok() && response.ok;
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served);

  serve::Response stats;
  ASSERT_TRUE(clients.front().request(request, &stats).ok());
  const std::string shed = "serve.connections.shed ";
  const auto at = stats.table.find(shed);
  ASSERT_NE(at, std::string::npos) << stats.table;
  EXPECT_GE(std::stoull(stats.table.substr(at + shed.size())), 1u);
}

// --- drain ---------------------------------------------------------------

TEST_F(ServeSuite, DrainFinishesThenRefusesAndUnlinksTheSocket) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_drain.sock").ok());
  serve::Client client;
  ASSERT_TRUE(client.connect(harness.socket_path()).ok());
  serve::Request request;
  request.endpoint = "afr";
  serve::Response response;
  ASSERT_TRUE(client.request(request, &response).ok());
  EXPECT_TRUE(response.ok);

  harness.stop();  // request_drain + join; asserts serve() returned kOk

  // The old connection was closed at its frame boundary (EOF) — or, if the
  // daemon was still tearing down, answered with the typed draining error.
  const auto err = client.request(request, &response);
  EXPECT_TRUE(!err.ok() || (!response.ok && response.error_code == "draining"));

  // Socket gone: new connections are refused and the path is unlinked.
  EXPECT_LT(raw_connect(harness.socket_path()), 0);
  EXPECT_NE(::access(harness.socket_path().c_str(), F_OK), 0);
}

TEST_F(ServeSuite, DrainSignalFdIsEquivalentToRequestDrain) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_sigdrain.sock").ok());
  // What a SIGTERM handler does: one byte down the self-pipe.
  const char byte = 1;
  ASSERT_EQ(::write(harness.daemon().drain_signal_fd(), &byte, 1), 1);
  harness.stop();  // joins; serve() must have exited cleanly on its own
  EXPECT_NE(::access(harness.socket_path().c_str(), F_OK), 0);
}

// --- shard LRU -----------------------------------------------------------

TEST_F(ServeSuite, MaxOpenShardsBoundsTheLruAndStillAnswersRight) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(shard_dir(), "serve_lru.sock", /*max_open_shards=*/2).ok());
  ASSERT_NE(harness.daemon().lru(), nullptr);

  const auto matrix = expected_matrix(mono());
  run_identity_clients(harness.socket_path(), matrix, /*clients=*/4, /*rounds=*/2);

  // Analyses pin all three shards while running (the cap is a budget, not a
  // ceiling), but the steady state after a query must be back under it.
  EXPECT_LE(harness.daemon().lru()->open_count(), 2u);
  EXPECT_GT(harness.daemon().lru()->evictions(), 0u);
}

TEST_F(ServeSuite, UnboundedDaemonKeepsEveryShardMapped) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(shard_dir(), "serve_nolru.sock").ok());
  ASSERT_NE(harness.daemon().lru(), nullptr);
  serve::Client client;
  ASSERT_TRUE(client.connect(harness.socket_path()).ok());
  serve::Request request;
  request.endpoint = "query";
  serve::Response response;
  ASSERT_TRUE(client.request(request, &response).ok());
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(harness.daemon().lru()->open_count(), 3u);
  EXPECT_EQ(harness.daemon().lru()->evictions(), 0u);
}

// --- rebuild in place -------------------------------------------------------

/// Asks every request of `matrix` once, in order, over one connection.
std::vector<serve::Response> ask_all(const std::string& socket_path,
                                     const std::vector<Expected>& matrix) {
  serve::Client client;
  EXPECT_TRUE(client.connect(socket_path).ok());
  std::vector<serve::Response> answers(matrix.size());
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    EXPECT_TRUE(client.request(matrix[i].request, &answers[i]).ok()) << i;
  }
  return answers;
}

// Stores are published by rename, so a daemon's mappings keep the
// generation they were opened on: rebuilding the served store in place must
// not kill the daemon (the old in-place write truncated the mapped inode:
// SIGBUS) nor change a single answer byte. A shard directory served through
// a 1-shard LRU must re-open evicted shards, and a shard re-opened after the
// rebuild is held to the old MANIFEST: old-generation bytes or a typed
// store-error, never a table mixing the two generations.
TEST_F(ServeSuite, RebuildInPlaceKeepsServingTheOldGeneration) {
  const auto matrix = expected_matrix(mono());
  const auto other_config = model::standard_fleet_config(0.02, 20080227);

  const std::string path = temp_path("serve_rebuilt.store");
  ASSERT_TRUE(core::write_store(path, core::simulate_and_analyze(*config_), 20080226, 0.02).ok());
  {
    DaemonHarness harness;
    ASSERT_TRUE(harness.start(path, "serve_rebuild_mono.sock").ok());
    const auto before = ask_all(harness.socket_path(), matrix);
    ASSERT_TRUE(core::write_store(path, core::simulate_and_analyze(other_config),
                                  20080227, 0.02)
                    .ok());
    const auto after = ask_all(harness.socket_path(), matrix);
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      EXPECT_TRUE(before[i].ok) << matrix[i].request.endpoint;
      EXPECT_EQ(before[i].table, matrix[i].table) << matrix[i].request.endpoint;
      EXPECT_TRUE(after[i].ok) << after[i].error_code << ": " << after[i].message;
      EXPECT_EQ(after[i].table, before[i].table) << matrix[i].request.endpoint;
    }
  }
  std::remove(path.c_str());

  const std::string dir = temp_path("serve_rebuilt_shards");
  core::ShardedBuildOptions options;
  options.shards = 4;
  ASSERT_TRUE(core::build_sharded_store(dir, *config_, options).ok());
  {
    DaemonHarness harness;
    ASSERT_TRUE(harness.start(dir, "serve_rebuild_dir.sock", /*max_open_shards=*/1).ok());
    const auto before = ask_all(harness.socket_path(), matrix);
    ASSERT_TRUE(core::build_sharded_store(dir, other_config, options).ok());
    const auto after = ask_all(harness.socket_path(), matrix);
    std::size_t store_errors = 0;
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      EXPECT_EQ(before[i].table, matrix[i].table) << matrix[i].request.endpoint;
      if (after[i].ok) {
        EXPECT_EQ(after[i].table, before[i].table) << matrix[i].request.endpoint;
      } else {
        EXPECT_EQ(after[i].error_code, "store-error") << after[i].message;
        ++store_errors;
      }
    }
    // Evicted shards had to be re-opened, and every re-open met a new file.
    EXPECT_GT(store_errors, 0u);
  }
  remove_shard_dir(dir);
}

// --- replicate_summary ----------------------------------------------------

TEST_F(ServeSuite, ReplicateSummaryMatchesTheOfflineRendererByteForByte) {
  replicate::ReplicateOptions options;
  options.scale = 0.02;
  options.seed = 77;
  options.max_replicates = 6;
  options.min_replicates = 3;
  options.batch = 3;
  const auto summary = replicate::run_replication(options);
  const std::string table_path = temp_path("serve_replicates.reps");
  ASSERT_TRUE(replicate::write_table(table_path, summary).ok());

  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_reps.sock", 0, table_path).ok());
  serve::Client client;
  ASSERT_TRUE(client.connect(harness.socket_path()).ok());
  for (const bool csv : {false, true}) {
    serve::Request request;
    request.endpoint = "replicate_summary";
    request.csv = csv;
    serve::Response response;
    ASSERT_TRUE(client.request(request, &response).ok());
    EXPECT_TRUE(response.ok) << response.error_code << ": " << response.message;
    EXPECT_EQ(response.table, replicate::render_summary(summary, csv));
  }

  // The stats endpoint carries the replicate provenance counters.
  serve::Request stats_request;
  stats_request.endpoint = "stats";
  serve::Response stats_response;
  ASSERT_TRUE(client.request(stats_request, &stats_response).ok());
  EXPECT_TRUE(stats_response.ok);
  for (const char* counter :
       {"serve.replicate.replicates", "serve.replicate.seed",
        "serve.replicate.seed_stream.replicate", "serve.replicate.stop_reason."}) {
    EXPECT_NE(stats_response.table.find(counter), std::string::npos) << counter;
  }
  std::remove(table_path.c_str());
}

TEST_F(ServeSuite, ReplicateSummaryWithoutATableIsATypedError) {
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_noreps.sock").ok());
  serve::Client client;
  ASSERT_TRUE(client.connect(harness.socket_path()).ok());
  serve::Request request;
  request.endpoint = "replicate_summary";
  serve::Response response;
  ASSERT_TRUE(client.request(request, &response).ok());
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "bad-request");
  EXPECT_EQ(response.message, "daemon was started without --replicates");
}

// --- unified validation ----------------------------------------------------

TEST_F(ServeSuite, BadParamsComeBackWithTheSharedValidatorWording) {
  // The daemon funnels params through core::AnalysisRequest::from_params —
  // the same validator the offline CLI uses — so the wire message must be
  // byte-identical to the core error (cli_test pins the offline end).
  DaemonHarness harness;
  ASSERT_TRUE(harness.start(mono_path(), "serve_badparam.sock").ok());
  serve::Client client;
  ASSERT_TRUE(client.connect(harness.socket_path()).ok());

  const struct {
    const char* field;
    const char* value;
    const char* message;
  } cases[] = {
      {"type", "gremlin", "unknown failure type 'gremlin'"},
      {"class", "midrange", "unknown system class 'midrange'"},
      {"family", "hh", "disk family must be a single letter, got 'hh'"},
      {"group_by", "shelf", "unknown group-by 'shelf' (want class|type|family)"},
  };
  for (const auto& c : cases) {
    serve::Request request;
    request.endpoint = "query";
    if (std::strcmp(c.field, "type") == 0) request.params.type = c.value;
    if (std::strcmp(c.field, "class") == 0) request.params.cls = c.value;
    if (std::strcmp(c.field, "family") == 0) request.params.family = c.value;
    if (std::strcmp(c.field, "group_by") == 0) request.params.group_by = c.value;
    serve::Response response;
    ASSERT_TRUE(client.request(request, &response).ok());
    EXPECT_FALSE(response.ok) << c.field;
    EXPECT_EQ(response.error_code, "bad-param") << c.field;
    EXPECT_EQ(response.message, c.message) << c.field;

    // And the in-process validator agrees byte for byte.
    core::AnalysisRequest analysis;
    const auto core_err = core::AnalysisRequest::from_params(
        core::StatisticId::kQuery, request.params, false, &analysis);
    EXPECT_EQ(core_err.code, response.error_code) << c.field;
    EXPECT_EQ(core_err.message, response.message) << c.field;
  }

  // Params on a non-query endpoint: same wording on the wire as offline.
  serve::Request request;
  request.endpoint = "replicate_summary";
  request.params.type = "disk";
  serve::Response response;
  ASSERT_TRUE(client.request(request, &response).ok());
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "bad-request");
  EXPECT_EQ(response.message, "params are only valid for the query endpoint");
}

// --- start() validation --------------------------------------------------

TEST_F(ServeSuite, StartRejectsAMissingInputWithATypedError) {
  serve::Daemon daemon;
  serve::ServeOptions options;
  options.input = temp_path("serve_nonexistent.store");
  options.socket_path = temp_path("serve_reject.sock");
  const auto err = daemon.start(options);
  EXPECT_FALSE(err.ok());
  EXPECT_NE(err.describe().find("serve_nonexistent"), std::string::npos)
      << err.describe();
}
