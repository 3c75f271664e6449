// Replication-engine throughput and the sequential-stopping payoff.
//
// Part 1 is a fixed-N ladder (8/16/32 replicates by default): wall time and
// replicates/sec at each rung, plus the afr.total relative CI half-width —
// the numbers behind docs/REPLICATION.md's "CI shrinks like 1/sqrt(N), cost
// grows linearly" framing. Part 2 re-runs the largest rung with a ci_rel
// target and reports how many replicates the sequential rule actually spent
// against the fixed budget, and the wall time saved.
//
// Fidelity gate: the ladder's base rung is recomputed at 1 thread and its
// STORREP1 image must be byte-identical to the pool run — a replicator that
// is fast but schedule-dependent exits nonzero. Results go to
// BENCH_replicate.json; the provenance manifest rides through
// bench::finish_run like every other harness.
//
//   replicate_bench [--scale=<f>] [--seed=<n>] [--threads=<n>]
//                   [--out=<path>] [--ci-rel=<r>] [--manifest=<path>]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "replicate/replicate.h"
#include "replicate/table.h"
#include "util/file.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/rss.h"

namespace {

using namespace storsubsim;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RungResult {
  std::size_t replicates = 0;
  double wall_seconds = 0.0;
  double replicates_per_second = 0.0;
  double afr_rel_half_width = 0.0;  ///< afr.total CI half-width / |mean|
};

double afr_total_rel_hw(const replicate::ReplicateSummary& summary) {
  const auto& stat = summary.stats.front();  // afr.total leads the table
  return stat.mean == 0.0 ? 0.0 : stat.ci.half_width() / stat.mean;
}

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::parse_options(argc, argv);
  std::string out_path = "BENCH_replicate.json";
  double ci_rel = 0.15;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--out=")) {
      out_path = arg.substr(6);
    } else if (arg.starts_with("--ci-rel=")) {
      ci_rel = util::flag_double("ci-rel", arg.substr(9));
    }
  }
  if (options.manifest.empty()) {
    std::string base = out_path;
    if (base.ends_with(".json")) base.resize(base.size() - 5);
    options.manifest = base + ".manifest.json";
  }

  replicate::ReplicateOptions base;
  base.scale = options.scale;
  base.seed = options.seed;
  base.min_replicates = 4;
  base.batch = 4;

  std::cout << "replication ladder at scale " << base.scale << " (seed " << base.seed
            << ", " << util::thread_count() << " thread(s))\n";

  const std::size_t ladder[] = {8, 16, 32};
  std::vector<RungResult> rungs;
  std::string base_table;
  for (const std::size_t n : ladder) {
    auto opts = base;
    opts.max_replicates = n;
    const double t0 = now_seconds();
    const auto summary = replicate::run_replication(opts);
    const double wall = now_seconds() - t0;
    RungResult rung;
    rung.replicates = summary.replicates;
    rung.wall_seconds = wall;
    rung.replicates_per_second =
        wall > 0.0 ? static_cast<double>(summary.replicates) / wall : 0.0;
    rung.afr_rel_half_width = afr_total_rel_hw(summary);
    rungs.push_back(rung);
    if (n == ladder[0]) base_table = replicate::encode_table(summary);
    std::cout << n << " replicates: " << wall << " s (" << rung.replicates_per_second
              << " replicates/s), afr.total rel CI half-width "
              << rung.afr_rel_half_width << "\n";
  }

  // Fidelity gate: the base rung recomputed serially must serialize to the
  // exact bytes the pooled run produced.
  {
    util::set_thread_count(1);
    auto opts = base;
    opts.max_replicates = ladder[0];
    const auto serial = replicate::run_replication(opts);
    util::set_thread_count(options.threads);
    if (replicate::encode_table(serial) != base_table) {
      std::cerr << "FAIL: replication is thread-dependent\n";
      return 1;
    }
    std::cout << "thread-invariance clean\n";
  }

  // Sequential stopping against the largest fixed budget.
  auto stop_opts = base;
  stop_opts.max_replicates = ladder[2];
  stop_opts.ci_rel = ci_rel;
  const double t0 = now_seconds();
  const auto stopped = replicate::run_replication(stop_opts);
  const double stop_wall = now_seconds() - t0;
  const double fixed_wall = rungs.back().wall_seconds;
  std::cout << "sequential stopping (ci_rel " << ci_rel << "): "
            << stopped.replicates << "/" << stop_opts.max_replicates
            << " replicates (" << replicate::to_string(stopped.stop_reason) << "), "
            << stop_wall << " s vs " << fixed_wall << " s fixed-N\n";

  const std::uint64_t peak_rss = util::peak_rss_bytes();
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"replicate\",\n"
      << "  \"scale\": " << base.scale << ",\n  \"seed\": " << base.seed
      << ",\n  \"threads\": " << util::thread_count()
      << ",\n  \"ci_rel\": " << ci_rel
      << ",\n  \"peak_rss_bytes\": " << peak_rss << ",\n  \"ladder\": [\n";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const auto& rung = rungs[i];
    out << "    {\"replicates\": " << rung.replicates
        << ", \"wall_seconds\": " << rung.wall_seconds
        << ", \"replicates_per_second\": " << rung.replicates_per_second
        << ", \"afr_rel_half_width\": " << rung.afr_rel_half_width << "}"
        << (i + 1 < rungs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"sequential\": {\"replicates\": " << stopped.replicates
      << ", \"budget\": " << stop_opts.max_replicates
      << ", \"stop_reason\": \"" << replicate::to_string(stopped.stop_reason)
      << "\", \"wall_seconds\": " << stop_wall
      << ", \"fixed_wall_seconds\": " << fixed_wall << "}\n}\n";
  if (util::publish_file(out_path, out.str()) != 0) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  std::vector<std::pair<std::string, double>> numbers;
  for (const auto& rung : rungs) {
    const std::string suffix = std::to_string(rung.replicates);
    numbers.emplace_back("wall_seconds_" + suffix, rung.wall_seconds);
    numbers.emplace_back("afr_rel_half_width_" + suffix, rung.afr_rel_half_width);
  }
  numbers.emplace_back("sequential_replicates", static_cast<double>(stopped.replicates));
  numbers.emplace_back("sequential_wall_seconds", stop_wall);
  numbers.emplace_back("peak_rss_bytes", static_cast<double>(peak_rss));
  bench::finish_run("bench/replicate_bench", options, numbers);

  return 0;
}
