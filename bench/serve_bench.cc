// storsimd serving throughput: the QPS ladder behind docs/SERVE.md.
//
// Builds (or reuses) a columnar store, starts an in-process serve::Daemon on
// a unix socket — the identical code path `storsubsim serve` runs — and
// drives it with 1, 4, 16 and 64 concurrent clients. Each client loops a
// steady-state request mix (grouped query, whole-fleet AFR, windowed query)
// and timestamps every round trip; the harness reports per-rung QPS and
// p50/p99 latency plus the process peak RSS.
//
// Fidelity gate: every response must be byte-identical to the offline
// renderer's answer for the same request — a daemon that serves fast but
// wrong exits nonzero. Results go to BENCH_serve.json; the provenance
// manifest rides through bench::finish_run like every other harness.
//
//   serve_bench [--scale=<f>] [--seed=<n>] [--threads=<n>] [--store=<path>]
//               [--out=<path>] [--requests=<n per client>]
//               [--manifest=<path>] [--trace=<path>]
#include <sstream>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.h"
#include "core/analysis_render.h"
#include "core/pipeline.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "store/query.h"
#include "store/shards.h"
#include "util/file.h"
#include "util/parallel.h"
#include "util/rss.h"

namespace {

using namespace storsubsim;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One rung of the ladder: N clients hammering the daemon concurrently.
struct RungResult {
  std::size_t clients = 0;
  std::uint64_t requests = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t mismatches = 0;
};

double percentile_us(std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_seconds.size() - 1));
  return sorted_seconds[rank] * 1e6;
}

RungResult run_rung(const std::string& socket_path, std::size_t clients,
                    std::uint64_t per_client,
                    const std::vector<serve::Request>& mix,
                    const std::vector<std::string>& expected) {
  RungResult rung;
  rung.clients = clients;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const double t0 = now_seconds();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      if (!client.connect(socket_path).ok()) {
        mismatches.fetch_add(per_client);
        return;
      }
      auto& lat = latencies[c];
      lat.reserve(per_client);
      for (std::uint64_t r = 0; r < per_client; ++r) {
        const std::size_t i = (r + c) % mix.size();
        serve::Response response;
        const double start = now_seconds();
        if (!client.request(mix[i], &response).ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        lat.push_back(now_seconds() - start);
        if (!response.ok || response.table != expected[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  rung.wall_seconds = now_seconds() - t0;
  std::vector<double> all;
  for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  rung.requests = static_cast<std::uint64_t>(all.size());
  rung.qps = rung.wall_seconds > 0.0
                 ? static_cast<double>(rung.requests) / rung.wall_seconds
                 : 0.0;
  rung.p50_us = percentile_us(all, 0.50);
  rung.p99_us = percentile_us(all, 0.99);
  rung.mismatches = mismatches.load();
  return rung;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::parse_options(argc, argv);
  std::string out_path = "BENCH_serve.json";
  std::uint64_t per_client = 250;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--out=")) {
      out_path = std::string(arg.substr(6));
    } else if (arg.starts_with("--requests=")) {
      per_client = std::stoull(std::string(arg.substr(11)));
    }
  }
  if (options.manifest.empty()) {
    std::string base = out_path;
    if (base.ends_with(".json")) base.resize(base.size() - 5);
    options.manifest = base + ".manifest.json";
  }
  util::set_thread_count(options.threads);

  // The served corpus: an existing store (--store) or one built here.
  std::string store_path = options.store;
  if (store_path.empty()) {
    store_path = "BENCH_serve.store";
    const auto run =
        core::simulate_and_analyze(model::standard_fleet_config(options.scale, options.seed));
    if (const auto err = core::write_store(store_path, run, options.seed, options.scale);
        !err.ok()) {
      std::cerr << "FAIL: cannot write store: " << err.describe() << "\n";
      return 1;
    }
  }
  store::ShardStore reference;
  if (const auto err = reference.open(store_path); !err.ok()) {
    std::cerr << "FAIL: cannot open store: " << err.describe() << "\n";
    return 1;
  }
  std::cout << "serving " << store_path << ": " << reference.manifest().events
            << " events\n";

  // Steady-state request mix and the offline answers it must reproduce.
  std::vector<serve::Request> mix(3);
  mix[0].endpoint = "query";
  mix[0].params.group_by = "class";
  mix[1].endpoint = "afr";
  mix[2].endpoint = "query";
  mix[2].params.type = "disk";
  mix[2].params.from_days = 30;
  mix[2].params.to_days = 365;
  std::vector<std::string> expected;
  const core::Source source(reference);
  for (const auto& request : mix) {
    if (request.endpoint == "afr") {
      expected.push_back(core::render_afr_total(source, false));
      continue;
    }
    store::Query query;
    if (!serve::make_query(request.params, &query).ok()) {
      std::cerr << "FAIL: bad benchmark query\n";
      return 1;
    }
    expected.push_back(
        core::render_query_result(store::run_query(reference, query), false));
  }

  serve::Daemon daemon;
  serve::ServeOptions serve_options;
  serve_options.input = store_path;
  serve_options.socket_path =
      "/tmp/storsimd_bench_" + std::to_string(::getpid()) + ".sock";
  serve_options.threads = options.threads;
  if (const auto err = daemon.start(serve_options); !err.ok()) {
    std::cerr << "FAIL: daemon start: " << err.describe() << "\n";
    return 1;
  }
  std::thread serve_thread([&daemon] {
    if (const auto err = daemon.serve(); !err.ok()) {
      std::cerr << "FAIL: daemon serve: " << err.describe() << "\n";
    }
  });

  const std::size_t ladder[] = {1, 4, 16, 64};
  std::vector<RungResult> rungs;
  std::uint64_t mismatches = 0;
  for (const std::size_t clients : ladder) {
    const auto rung =
        run_rung(serve_options.socket_path, clients, per_client, mix, expected);
    std::cout << clients << " client(s): " << rung.qps << " qps, p50 "
              << rung.p50_us << " us, p99 " << rung.p99_us << " us ("
              << rung.requests << " requests, " << rung.wall_seconds << " s)\n";
    mismatches += rung.mismatches;
    rungs.push_back(rung);
  }
  daemon.request_drain();
  serve_thread.join();

  const std::uint64_t peak_rss = util::peak_rss_bytes();
  std::cout << "byte-identity "
            << (mismatches == 0 ? "clean" : "MISMATCH") << ", peak RSS "
            << peak_rss << " bytes\n";

  std::ostringstream out;
  out << "{\n  \"benchmark\": \"serve_qps\",\n"
      << "  \"scale\": " << options.scale << ",\n  \"seed\": " << options.seed
      << ",\n  \"requests_per_client\": " << per_client << ",\n"
      << "  \"events\": " << reference.manifest().events << ",\n"
      << "  \"mismatches\": " << mismatches << ",\n"
      << "  \"peak_rss_bytes\": " << peak_rss << ",\n"
      << "  \"ladder\": [\n";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const auto& rung = rungs[i];
    out << "    {\"clients\": " << rung.clients << ", \"requests\": " << rung.requests
        << ", \"wall_seconds\": " << rung.wall_seconds << ", \"qps\": " << rung.qps
        << ", \"p50_us\": " << rung.p50_us << ", \"p99_us\": " << rung.p99_us << "}"
        << (i + 1 < rungs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (util::publish_file(out_path, out.str()) != 0) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  std::vector<std::pair<std::string, double>> numbers;
  for (const auto& rung : rungs) {
    const std::string suffix = std::to_string(rung.clients);
    numbers.emplace_back("qps_" + suffix, rung.qps);
    numbers.emplace_back("p50_us_" + suffix, rung.p50_us);
    numbers.emplace_back("p99_us_" + suffix, rung.p99_us);
  }
  numbers.emplace_back("peak_rss_bytes", static_cast<double>(peak_rss));
  options.store = store_path;
  bench::finish_run("bench/serve_bench", options, numbers);

  return mismatches == 0 ? 0 : 1;
}
