// End-to-end test of the storsubsim CLI binary: simulate writes log +
// snapshot files, analyze and predict consume them. Exercises the file-based
// path (everything else in the suite uses in-memory streams).
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#ifndef STORSUBSIM_CLI_PATH
#error "STORSUBSIM_CLI_PATH must be defined by the build"
#endif

namespace {

/// PID-unique paths: ctest's per-test discovery runs each TEST in its own
/// process, possibly in parallel, so shared filenames would race.
std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Runs the CLI, captures stdout into a file, returns (exit code, stdout).
std::pair<int, std::string> run_cli(const std::string& args) {
  const std::string out_path = temp_path("cli_stdout.txt");
  const std::string command =
      std::string(STORSUBSIM_CLI_PATH) + " " + args + " > " + out_path + " 2>/dev/null";
  const int status = std::system(command.c_str());
  std::ifstream in(out_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return {status, buffer.str()};
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    logs_path_ = temp_path("cli_fleet.log");
    snap_path_ = temp_path("cli_fleet.snap");
    const auto [status, out] = run_cli("simulate --logs " + logs_path_ + " --snapshot " +
                                       snap_path_ + " --scale 0.01 --seed 4 --precursors");
    ASSERT_EQ(status, 0) << out;
  }

  static std::string logs_path_;
  static std::string snap_path_;
};

std::string CliTest::logs_path_;
std::string CliTest::snap_path_;

}  // namespace

TEST_F(CliTest, SimulateProducesParsableFiles) {
  std::ifstream logs(logs_path_);
  ASSERT_TRUE(logs.good());
  std::string first_line;
  std::getline(logs, first_line);
  EXPECT_NE(first_line.find(" t="), std::string::npos);

  std::ifstream snap(snap_path_);
  ASSERT_TRUE(snap.good());
  std::string header;
  std::getline(snap, header);
  EXPECT_EQ(header.rfind("SNAPSHOT ", 0), 0u);
}

TEST_F(CliTest, AnalyzeAfr) {
  const auto [status, out] =
      run_cli("analyze --logs " + logs_path_ + " --snapshot " + snap_path_ +
              " --report afr --exclude-h");
  EXPECT_EQ(status, 0);
  EXPECT_NE(out.find("near-line"), std::string::npos);
  EXPECT_NE(out.find("total AFR"), std::string::npos);
}

TEST_F(CliTest, AnalyzeCorrelationCsv) {
  const auto [status, out] = run_cli("analyze --logs " + logs_path_ + " --snapshot " +
                                     snap_path_ + " --report correlation --csv");
  EXPECT_EQ(status, 0);
  // CSV mode: comma-separated header, no table pipes.
  EXPECT_NE(out.find("scope,type,windows"), std::string::npos);
  EXPECT_EQ(out.find("| scope"), std::string::npos);
}

TEST_F(CliTest, EventsExportCsv) {
  const auto [status, out] = run_cli("analyze --logs " + logs_path_ + " --snapshot " +
                                     snap_path_ + " --report events --csv");
  EXPECT_EQ(status, 0);
  EXPECT_NE(out.find("time_s,type,disk"), std::string::npos);
  EXPECT_NE(out.find("physical-interconnect"), std::string::npos);
  // At least a few hundred rows at scale 0.01.
  EXPECT_GT(std::count(out.begin(), out.end(), '\n'), 100);
}

TEST_F(CliTest, AnalyzeBurstinessAndVulnerability) {
  for (const char* report : {"burstiness", "vulnerability"}) {
    const auto [status, out] = run_cli("analyze --logs " + logs_path_ + " --snapshot " +
                                       snap_path_ + " --report " + report);
    EXPECT_EQ(status, 0) << report;
    EXPECT_FALSE(out.empty()) << report;
  }
}

TEST_F(CliTest, InspectFromSnapshotAlone) {
  const auto [status, out] = run_cli("inspect --snapshot " + snap_path_);
  EXPECT_EQ(status, 0);
  EXPECT_NE(out.find("RAID groups"), std::string::npos);
  EXPECT_NE(out.find("near-line"), std::string::npos);
  EXPECT_NE(out.find("disk model"), std::string::npos);
}

TEST_F(CliTest, Predict) {
  const auto [status, out] = run_cli("predict --logs " + logs_path_ + " --snapshot " +
                                     snap_path_ + " --threshold 3");
  EXPECT_EQ(status, 0);
  EXPECT_NE(out.find("medium-error -> disk"), std::string::npos);
  EXPECT_NE(out.find("precision"), std::string::npos);
}

TEST_F(CliTest, ClassFilter) {
  const auto [status, out] = run_cli("analyze --logs " + logs_path_ + " --snapshot " +
                                     snap_path_ + " --report afr --class low-end");
  EXPECT_EQ(status, 0);
  EXPECT_NE(out.find("low-end"), std::string::npos);
  EXPECT_EQ(out.find("near-line"), std::string::npos);
}

TEST_F(CliTest, StoreBuildQueryStatsAndAnalyze) {
  // Build a columnar store from the shared log/snapshot artifacts, then
  // check that every store consumer agrees with the log-parsing path.
  const std::string store_path = temp_path("cli_fleet.store");
  {
    const auto [status, out] = run_cli("store build --out " + store_path + " --logs " +
                                       logs_path_ + " --snapshot " + snap_path_);
    ASSERT_EQ(status, 0) << out;
  }
  {
    const auto [status, out] = run_cli("store stats --store " + store_path);
    EXPECT_EQ(status, 0);
    EXPECT_NE(out.find("format version"), std::string::npos);
    EXPECT_NE(out.find("disk-years"), std::string::npos);
    EXPECT_NE(out.find("near-line"), std::string::npos);
  }
  {
    const auto [status, out] =
        run_cli("store query --store " + store_path + " --group-by class");
    EXPECT_EQ(status, 0);
    EXPECT_NE(out.find("AFR %"), std::string::npos);
    EXPECT_NE(out.find("near-line"), std::string::npos);
  }
  {
    const auto [status, out] = run_cli("store query --store " + store_path +
                                       " --type disk --from-days 0 --to-days 10000");
    EXPECT_EQ(status, 0);
    EXPECT_NE(out.find("all"), std::string::npos);
  }
  // The mmap fast path must print the same report as the log path, byte for
  // byte — for the whole fleet and for a filtered cohort.
  for (const char* extra : {"", " --class low-end --exclude-h"}) {
    for (const char* report : {"afr", "burstiness", "correlation", "events"}) {
      const auto from_logs = run_cli("analyze --logs " + logs_path_ + " --snapshot " +
                                     snap_path_ + " --report " + report + extra);
      const auto from_store =
          run_cli("analyze --store " + store_path + " --report " + report + extra);
      EXPECT_EQ(from_store.first, 0) << report;
      EXPECT_EQ(from_store.second, from_logs.second) << report << extra;
    }
  }
  std::remove(store_path.c_str());
}

TEST_F(CliTest, InputAutoDetectsBackendByteIdentically) {
  // `--input` sniffs the STORCOL1 magic: the same analyze invocation spelled
  // with --logs, --store, --input <store>, and --input <log> must print the
  // same bytes.
  const std::string store_path = temp_path("cli_input.store");
  {
    const auto [status, out] = run_cli("store build --out " + store_path + " --logs " +
                                       logs_path_ + " --snapshot " + snap_path_);
    ASSERT_EQ(status, 0) << out;
  }
  const std::string snap_arg = " --snapshot " + snap_path_;
  for (const char* report : {"afr", "correlation"}) {
    const std::string tail = std::string(" --report ") + report;
    const auto via_logs = run_cli("analyze --logs " + logs_path_ + snap_arg + tail);
    const auto via_store = run_cli("analyze --store " + store_path + tail);
    const auto via_input_store = run_cli("analyze --input " + store_path + tail);
    const auto via_input_logs = run_cli("analyze --input " + logs_path_ + snap_arg + tail);
    ASSERT_EQ(via_logs.first, 0) << report;
    EXPECT_EQ(via_input_store.first, 0) << report;
    EXPECT_EQ(via_input_logs.first, 0) << report;
    EXPECT_EQ(via_input_store.second, via_store.second) << report;
    EXPECT_EQ(via_input_store.second, via_logs.second) << report;
    EXPECT_EQ(via_input_logs.second, via_logs.second) << report;
  }
  // Mixing --input with an explicit backend flag is ambiguous and rejected.
  EXPECT_NE(run_cli("analyze --input " + store_path + " --store " + store_path +
                    " --report afr")
                .first,
            0);
  std::remove(store_path.c_str());
}

TEST_F(CliTest, ObservabilityFlagsChangeNoAnalysisByte) {
  // --metrics goes to stderr and --trace/--manifest only write side files:
  // stdout must be byte-identical with and without them.
  const std::string trace_path = temp_path("cli_obs.trace.json");
  const std::string manifest_path = temp_path("cli_obs.manifest.json");
  const std::string base_args =
      "analyze --logs " + logs_path_ + " --snapshot " + snap_path_ + " --report afr";
  const auto plain = run_cli(base_args);
  const auto instrumented = run_cli(base_args + " --metrics --trace " + trace_path +
                                    " --manifest " + manifest_path);
  ASSERT_EQ(plain.first, 0);
  ASSERT_EQ(instrumented.first, 0);
  EXPECT_EQ(instrumented.second, plain.second);

  // Both artifacts exist and are JSON objects with the expected markers.
  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  EXPECT_NE(trace_text.str().find("\"traceEvents\""), std::string::npos);

  std::ifstream manifest_in(manifest_path);
  ASSERT_TRUE(manifest_in.good());
  std::stringstream manifest_text;
  manifest_text << manifest_in.rdbuf();
  EXPECT_NE(manifest_text.str().find("\"storsubsim_manifest\""), std::string::npos);
  EXPECT_NE(manifest_text.str().find("\"metrics\""), std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(manifest_path.c_str());
}

TEST(CliStoreErrors, CorruptAndMissingStoresRejected) {
  EXPECT_NE(run_cli("store query --store /nonexistent.store").first, 0);
  EXPECT_NE(run_cli("store frobnicate").first, 0);
  EXPECT_NE(run_cli("store build").first, 0);  // missing --out
  const std::string bogus = temp_path("bogus.store");
  std::ofstream(bogus) << "this is not a column store";
  EXPECT_NE(run_cli("store stats --store " + bogus).first, 0);
  EXPECT_NE(run_cli("analyze --store " + bogus + " --report afr").first, 0);
  std::remove(bogus.c_str());
}

// End-to-end storsimd: `serve` a store in the background, drive it with
// `client`, check byte-identity against offline `analyze`, then SIGTERM it
// and verify a clean drain (socket unlinked).
TEST_F(CliTest, ServeAnswersClientIdenticallyToAnalyzeThenDrains) {
  const std::string store_path = temp_path("cli_serve.store");
  {
    const auto [status, out] = run_cli("store build --out " + store_path + " --logs " +
                                       logs_path_ + " --snapshot " + snap_path_);
    ASSERT_EQ(status, 0) << out;
  }
  const std::string sock_path = temp_path("cli_serve.sock");
  const std::string pid_path = temp_path("cli_serve.pid");
  ASSERT_EQ(std::system((std::string(STORSUBSIM_CLI_PATH) + " serve --input " +
                         store_path + " --socket " + sock_path +
                         " >/dev/null 2>&1 & echo $! > " + pid_path)
                            .c_str()),
            0);
  pid_t daemon_pid = 0;
  {
    std::ifstream in(pid_path);
    in >> daemon_pid;
    ASSERT_GT(daemon_pid, 0);
  }
  // start() binds before serve() accepts, so the socket appearing means the
  // daemon is ready. 5 s ceiling; typical startup is a few ms.
  for (int i = 0; i < 500 && ::access(sock_path.c_str(), F_OK) != 0; ++i) {
    ::usleep(10 * 1000);
  }
  ASSERT_EQ(::access(sock_path.c_str(), F_OK), 0) << "daemon never bound";

  const struct {
    const char* endpoint;
    const char* report;  // the offline `analyze --report` spelling
  } pairs[] = {{"afr", "afr-total"},
               {"afr_by_class", "afr"},
               {"tbf", "burstiness"},
               {"correlation", "correlation"},
               {"lifetime", "lifetime"}};
  for (const auto& p : pairs) {
    const auto offline =
        run_cli("analyze --store " + store_path + " --report " + p.report);
    const auto served =
        run_cli("client --socket " + sock_path + " --endpoint " + p.endpoint);
    EXPECT_EQ(served.first, 0) << p.endpoint;
    EXPECT_EQ(served.second, offline.second) << p.endpoint;
  }
  {
    const auto offline = run_cli("store query --store " + store_path +
                                 " --group-by class --csv");
    const auto served = run_cli("client --socket " + sock_path +
                                " --endpoint query --group-by class --csv");
    EXPECT_EQ(served.first, 0);
    EXPECT_EQ(served.second, offline.second);
  }

  ASSERT_EQ(::kill(daemon_pid, SIGTERM), 0);
  for (int i = 0; i < 500 && ::access(sock_path.c_str(), F_OK) == 0; ++i) {
    ::usleep(10 * 1000);
  }
  EXPECT_NE(::access(sock_path.c_str(), F_OK), 0) << "socket leaked after drain";
  std::remove(store_path.c_str());
  std::remove(pid_path.c_str());
}

namespace {

/// Like run_cli, but captures stderr (stdout dropped): the unified
/// validator's error wording prints there.
std::pair<int, std::string> run_cli_stderr(const std::string& args) {
  const std::string err_path = temp_path("cli_stderr.txt");
  const std::string command =
      std::string(STORSUBSIM_CLI_PATH) + " " + args + " 2> " + err_path + " >/dev/null";
  const int status = std::system(command.c_str());
  std::ifstream in(err_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return {status, buffer.str()};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

TEST(CliUsage, BadInvocationsFail) {
  EXPECT_NE(run_cli("").first, 0);
  EXPECT_NE(run_cli("frobnicate").first, 0);
  EXPECT_NE(run_cli("analyze --report afr").first, 0);  // missing files
  EXPECT_NE(run_cli("analyze --logs /nonexistent.log --snapshot /nonexistent.snap "
                    "--report afr")
                .first,
            0);

  // A number flag that does not parse, or a count that is negative, not an
  // integer or too large for its type, is a usage error naming the flag —
  // never an escaped exception or a wrapped-around cast. No case here may
  // parse to a large --threads: that would start that many threads.
  const std::string out = temp_path("cli_bad_value");
  const struct {
    std::string args;
    const char* flag;
  } cases[] = {
      {"store build --out " + out + " --scale abc", "scale"},
      {"store build --out " + out + " --shards -3 --scale 0.01", "shards"},
      {"store build --out " + out + " --shards 2.5 --scale 0.01", "shards"},
      {"store build --out " + out + " --max-rss-mb 1e3 --scale 0.01", "max-rss-mb"},
      {"store build --out " + out + " --seed -1 --scale 0.01", "seed"},
      {"store build --out " + out + " --seed 18446744073709551616 --scale 0.01", "seed"},
      {"store build --out " + out + " --scale nan", "scale"},
      {"simulate --logs " + out + " --snapshot " + out + " --threads -1", "threads"},
      {"simulate --logs " + out + " --snapshot " + out + " --threads 4x", "threads"},
      {"replicate --out " + out + " --batch abc", "batch"},
      {"predict --logs " + out + " --snapshot " + out + " --threshold -1", "threshold"},
      {"serve --input " + out + " --socket " + out + " --max-open-shards -2",
       "max-open-shards"},
  };
  for (const auto& c : cases) {
    const auto [status, err] = run_cli_stderr(c.args);
    ASSERT_TRUE(WIFEXITED(status)) << c.args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << c.args;
    EXPECT_NE(err.find(std::string("bad value for --") + c.flag), std::string::npos)
        << c.args << ": " << err;
  }
  struct ::stat st {};
  EXPECT_NE(::stat(out.c_str(), &st), 0) << "a rejected build wrote " << out;
}


// End-to-end replication: the table and report are thread-invariant,
// `analyze --replicates` re-renders the table byte-identically without
// re-simulating, and the provenance manifest records the substream.
TEST(CliReplicate, ThreadInvariantTableAnalyzeRendersIdentically) {
  const std::string t1_path = temp_path("cli_t1.reps");
  const std::string t4_path = temp_path("cli_t4.reps");
  const std::string flags =
      " --scale 0.02 --seed 5 --max-replicates 8 --min-replicates 4 --batch 4";
  const auto t1 = run_cli("replicate --out " + t1_path + flags + " --threads 1");
  const auto t4 = run_cli("replicate --out " + t4_path + flags + " --threads 4");
  ASSERT_EQ(t1.first, 0);
  ASSERT_EQ(t4.first, 0);
  EXPECT_EQ(t1.second, t4.second) << "report must not depend on thread count";
  EXPECT_EQ(slurp(t1_path), slurp(t4_path)) << "table must not depend on thread count";

  const auto analyzed = run_cli("analyze --replicates " + t1_path);
  ASSERT_EQ(analyzed.first, 0);
  EXPECT_EQ(analyzed.second, t1.second);

  const std::string manifest = slurp(t1_path + ".manifest.json");
  for (const char* token : {"\"seed_stream\"", "\"replicate\"", "\"stop_reason\"",
                            "\"max_replicates\"", "\"replicates\": 8"}) {
    EXPECT_NE(manifest.find(token), std::string::npos) << token;
  }

  std::remove((t1_path + ".manifest.json").c_str());
  std::remove((t4_path + ".manifest.json").c_str());
  std::remove(t1_path.c_str());
  std::remove(t4_path.c_str());
}

TEST(CliReplicate, SequentialStoppingBeatsTheFixedBudget) {
  const std::string out = temp_path("cli_earlystop.reps");
  const auto run = run_cli("replicate --out " + out +
                           " --scale 0.02 --seed 5 --max-replicates 24"
                           " --min-replicates 4 --batch 4 --ci-rel 0.5 --threads 1");
  ASSERT_EQ(run.first, 0);
  EXPECT_NE(run.second.find("converged"), std::string::npos) << run.second;
  const std::string manifest = slurp(out + ".manifest.json");
  EXPECT_NE(manifest.find("\"stop_reason\": \"converged\""), std::string::npos) << manifest;
  // Converging before the 24-replicate budget is the point of the
  // sequential rule: the manifest records fewer replicates actually run.
  EXPECT_EQ(manifest.find("\"replicates\": 24"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("\"converged_statistics\""), std::string::npos);
  std::remove((out + ".manifest.json").c_str());
  std::remove(out.c_str());
}

TEST_F(CliTest, OfflineBadParamsUseTheSharedValidatorWording) {
  // serve_test pins the same strings coming over the socket; together the
  // two suites prove "same error offline and over the wire, byte for byte".
  const std::string store_path = temp_path("cli_badparam.store");
  {
    const auto [status, out] = run_cli("store build --out " + store_path + " --logs " +
                                       logs_path_ + " --snapshot " + snap_path_);
    ASSERT_EQ(status, 0) << out;
  }
  const struct {
    const char* flag;
    const char* message;
  } cases[] = {
      {"--type gremlin", "unknown failure type 'gremlin'"},
      {"--class midrange", "unknown system class 'midrange'"},
      {"--family hh", "disk family must be a single letter, got 'hh'"},
      {"--group-by shelf", "unknown group-by 'shelf' (want class|type|family)"},
  };
  for (const auto& c : cases) {
    const auto [status, err] =
        run_cli_stderr("store query --store " + store_path + " " + c.flag);
    EXPECT_NE(status, 0) << c.flag;
    EXPECT_EQ(err, std::string(c.message) + "\n") << c.flag;
  }
  std::remove(store_path.c_str());
  std::remove((store_path + ".manifest.json").c_str());
}

TEST(CliUsage, UnknownClassRejected) {
  const std::string logs = temp_path("cli_fleet.log");
  const std::string snap = temp_path("cli_fleet.snap");
  EXPECT_NE(run_cli("analyze --logs " + logs + " --snapshot " + snap +
                    " --report afr --class warp-core")
                .first,
            0);
}

TEST_F(CliTest, TextInputsReadFromFifosByteIdentically) {
  // Piped input (a FIFO, a process substitution) has no size to map: the
  // text ingest must read it whole and print the bytes it prints for the
  // regular files, and --input must not drain it while sniffing for a store.
  const std::string log_fifo = temp_path("cli_logs.fifo");
  const std::string snap_fifo = temp_path("cli_snap.fifo");
  const auto over_fifos = [&](const std::string& args) {
    for (const std::string& fifo : {log_fifo, snap_fifo}) {
      std::remove(fifo.c_str());
      EXPECT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << fifo;
    }
    const std::string out_path = temp_path("cli_fifo_stdout.txt");
    const std::string feed = "timeout 60 sh -c 'cat " + logs_path_ + " > " + log_fifo +
                             "' & timeout 60 sh -c 'cat " + snap_path_ + " > " + snap_fifo +
                             "' & ";
    const std::string command = feed + STORSUBSIM_CLI_PATH + " " + args + " > " + out_path +
                                " 2>/dev/null; rc=$?; wait; exit $rc";
    const int status = std::system(command.c_str());
    return std::pair<int, std::string>{status, slurp(out_path)};
  };
  const struct {
    const char* command;
    const char* log_flag;
    const char* tail;
  } cases[] = {
      {"analyze", "--logs", " --report afr"},
      {"analyze", "--input", " --report correlation"},
      {"predict", "--logs", ""},
  };
  for (const auto& c : cases) {
    const std::string head = std::string(c.command) + " " + c.log_flag + " ";
    const auto regular = run_cli(head + logs_path_ + " --snapshot " + snap_path_ + c.tail);
    const auto piped = over_fifos(head + log_fifo + " --snapshot " + snap_fifo + c.tail);
    ASSERT_EQ(regular.first, 0) << head;
    EXPECT_FALSE(regular.second.empty()) << head;
    EXPECT_EQ(piped.first, 0) << head;
    EXPECT_EQ(piped.second, regular.second) << head;
  }
  std::remove(log_fifo.c_str());
  std::remove(snap_fifo.c_str());
}
