// Columnar store rerun cost: "simulate once, analyze many" quantified.
//
// Measures the three costs the store trades between (docs/STORE.md):
//
//   * pipeline — the full simulate -> emit -> parse -> classify path that a
//     `--report-only` rerun used to pay every time;
//   * build    — serializing the finished run into a store file (paid once);
//   * rerun    — mmap the store, decode the time columns, and answer the
//     whole-fleet AFR breakdown plus a grouped query (paid per reanalysis);
//   * analyses — the lifetime, correlation and burstiness reports' analyses
//     (disk_lifetime_report; both scopes of failure_correlation_all_types
//     and time_between_failures) over the opened store, each timed alone.
//
// The store-backed breakdown must match the in-memory pipeline's breakdown
// bit for bit, the query's per-type counts must match the classifier's, and
// each analysis must equal its result over the in-memory Dataset — the
// program exits nonzero otherwise, so the speedup is apples-to-apples.
// Results go to BENCH_store.json.
//
//   store_bench [--scale=<f>] [--seed=<n>] [--repeat=<n>] [--threads=<n>]
//               [--store=<path>] [--out=<path>]
//               [--shards=<n>] [--max-rss-mb=<m>]
//
// --repeat keeps the fastest of n runs per stage and analysis (min-of-N). --store names
// the store file written during the run (default: a file next to the json).
//
// Passing --shards and/or --max-rss-mb switches to the sharded build path:
// --store then names a DIRECTORY that receives N STORCOL1 shards plus a
// MANIFEST (core::build_sharded_store), and the bench additionally reports
// the shard count, the per-shard build seconds, and the cold cross-shard
// rerun cost (fresh ShardStore open + merged AFR + grouped query spanning
// every shard). The fidelity gates are unchanged: the merged answers must
// equal the in-memory pipeline's bit for bit.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/afr.h"
#include "core/burstiness.h"
#include "core/correlation.h"
#include "core/lifetime.h"
#include "core/pipeline.h"
#include "core/sharded_build.h"
#include "obs/obs.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "store/query.h"
#include "store/shards.h"
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

bool same_breakdown(const std::vector<core::AfrBreakdown>& a,
                    const std::vector<core::AfrBreakdown>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].events != b[i].events ||
        a[i].disk_years != b[i].disk_years) {  // exact FP compare — intentional
      return false;
    }
  }
  return true;
}

/// The three heavy analyses of one source, as the report renderers run them.
struct Analyses {
  core::LifetimeReport lifetime;
  std::vector<core::CorrelationResult> correlation;  // shelf types, then RAID-group types
  std::vector<core::BurstinessResult> burstiness;    // shelf, then RAID group
};

std::vector<core::CorrelationResult> correlation_of(const core::Source& source) {
  auto out = core::failure_correlation_all_types(source, core::Scope::kShelf);
  for (auto& r : core::failure_correlation_all_types(source, core::Scope::kRaidGroup)) {
    out.push_back(r);
  }
  return out;
}

std::vector<core::BurstinessResult> burstiness_of(const core::Source& source) {
  return {core::time_between_failures(source, core::Scope::kShelf),
          core::time_between_failures(source, core::Scope::kRaidGroup)};
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_analyses(const Analyses& a, const Analyses& b) {
  const auto& ca = a.lifetime.survival.curve();
  const auto& cb = b.lifetime.survival.curve();
  const auto& ha = a.lifetime.hazard_by_age;
  const auto& hb = b.lifetime.hazard_by_age;
  if (a.lifetime.disks != b.lifetime.disks || a.lifetime.failures != b.lifetime.failures ||
      !same_bits(a.lifetime.censored_fraction, b.lifetime.censored_fraction) ||
      ca.size() != cb.size() || ha.size() != hb.size()) {
    return false;
  }
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (!same_bits(ca[i].time, cb[i].time) || !same_bits(ca[i].survival, cb[i].survival) ||
        ca[i].at_risk != cb[i].at_risk || ca[i].events != cb[i].events ||
        !same_bits(a.lifetime.survival.greenwood_variance(ca[i].time),
                   b.lifetime.survival.greenwood_variance(cb[i].time))) {
      return false;
    }
  }
  for (std::size_t i = 0; i < ha.size(); ++i) {
    if (ha[i].events != hb[i].events || !same_bits(ha[i].exposure, hb[i].exposure)) return false;
  }
  if (a.correlation.size() != b.correlation.size()) return false;
  for (std::size_t i = 0; i < a.correlation.size(); ++i) {
    const auto& ra = a.correlation[i];
    const auto& rb = b.correlation[i];
    if (ra.windows_observed != rb.windows_observed || ra.windows_with_one != rb.windows_with_one ||
        ra.windows_with_two != rb.windows_with_two) {
      return false;
    }
  }
  if (a.burstiness.size() != b.burstiness.size()) return false;
  for (std::size_t i = 0; i < a.burstiness.size(); ++i) {
    if (a.burstiness[i].gaps != b.burstiness[i].gaps) return false;  // exact FP compare
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::uint64_t seed = 20080226;
  int repeat = 3;
  unsigned threads = 0;
  std::size_t shard_opt = 0;
  std::uint64_t max_rss_mb = 0;
  std::string out_path = "BENCH_store.json";
  std::string store_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--scale=")) {
      scale = util::flag_double("scale", arg.substr(8));
    } else if (arg.starts_with("--seed=")) {
      seed = util::flag_count("seed", arg.substr(7));
    } else if (arg.starts_with("--repeat=")) {
      repeat = static_cast<int>(
          util::flag_count("repeat", arg.substr(9), std::numeric_limits<int>::max()));
    } else if (arg.starts_with("--threads=")) {
      threads = static_cast<unsigned>(
          util::flag_count("threads", arg.substr(10), std::numeric_limits<unsigned>::max()));
    } else if (arg.starts_with("--shards=")) {
      shard_opt = util::flag_count("shards", arg.substr(9));
    } else if (arg.starts_with("--max-rss-mb=")) {
      max_rss_mb = util::flag_count("max-rss-mb", arg.substr(13));
    } else if (arg.starts_with("--store=")) {
      store_path = std::string(arg.substr(8));
    } else if (arg.starts_with("--out=")) {
      out_path = std::string(arg.substr(6));
    }
  }
  if (repeat < 1) repeat = 1;
  const bool sharded = shard_opt > 0 || max_rss_mb > 0;
  if (store_path.empty()) {
    store_path = sharded ? "BENCH_store.shards" : "BENCH_store.store";
  }
  util::set_thread_count(threads);

  // The cost a store-less rerun pays: the full text-log pipeline.
  double t0 = now_seconds();
  const auto run = core::simulate_and_analyze(model::standard_fleet_config(scale, seed));
  const double pipeline_seconds = now_seconds() - t0;
  const core::Source fleet(run.dataset);
  std::cout << "scale " << scale << ": " << fleet.event_records() << " failures, "
            << fleet.disk_records() << " disk records ("
            << pipeline_seconds << " s full pipeline)\n";
  const auto reference = core::afr_by_class(fleet);

  // Build cost (paid once per simulation). The sharded path re-simulates in
  // chunks (that is the point: bounded memory), so its build time includes
  // the simulation; the monolithic path serializes the run already in hand.
  double build_seconds = 0.0;
  std::size_t shard_count = 0;
  std::vector<double> shard_build_seconds;
  for (int r = 0; r < repeat; ++r) {
    t0 = now_seconds();
    store::Error err;
    core::ShardedBuildResult built;
    if (sharded) {
      core::ShardedBuildOptions options;
      options.shards = shard_opt;
      options.max_rss_mb = max_rss_mb;
      err = core::build_sharded_store(store_path,
                                      model::standard_fleet_config(scale, seed), options,
                                      &built);
    } else {
      err = core::write_store(store_path, run, seed, scale);
    }
    const double elapsed = now_seconds() - t0;
    if (!err.ok()) {
      std::cerr << "FAIL: cannot write store: " << err.describe() << "\n";
      return 1;
    }
    if (r == 0 || elapsed < build_seconds) {
      build_seconds = elapsed;
      if (sharded) {
        shard_count = built.shards;
        shard_build_seconds = std::move(built.shard_build_seconds);
      }
    }
  }
  std::uint64_t file_bytes = 0;
  {
    store::ShardStore probe;
    if (const auto err = probe.open(store_path); !err.ok()) {
      std::cerr << "FAIL: cannot open store: " << err.describe() << "\n";
      return 1;
    }
    for (std::size_t s = 0; s < probe.shard_count(); ++s) {
      file_bytes += probe.info(s).file_size;
    }
  }

  // Rerun cost (paid per reanalysis): cold open + the whole-fleet AFR
  // breakdown + a grouped full-scan query. Each repeat is a fresh ShardStore
  // (a single file opens as one shard), so header/footer validation, CRCs
  // and time-column decoding are all counted — in sharded mode the manifest
  // parse and every shard's validation too.
  double rerun_seconds = 0.0;
  std::vector<core::AfrBreakdown> store_breakdown;
  store::QueryResult grouped;
  for (int r = 0; r < repeat; ++r) {
    t0 = now_seconds();
    store::ShardStore shards;
    store::Error err = shards.open(store_path);
    if (err.ok()) err = shards.open_all();
    if (!err.ok()) {
      std::cerr << "FAIL: cannot open store: " << err.describe() << "\n";
      return 1;
    }
    std::vector<core::AfrBreakdown> breakdown = core::afr_by_class(core::Source(shards));
    store::Query query;
    query.group_by = store::Query::GroupBy::kSystemClass;
    store::QueryResult result = store::run_query(shards, query);
    const double elapsed = now_seconds() - t0;
    if (r == 0 || elapsed < rerun_seconds) rerun_seconds = elapsed;
    if (r == 0) {
      store_breakdown = std::move(breakdown);
      grouped = std::move(result);
    }
  }
  // Analysis cost: each heavy analysis alone over one opened store (the
  // analyses are single-threaded), min-of-N. Each must reproduce its result
  // over the in-memory Dataset.
  double lifetime_seconds = 0.0;
  double correlation_seconds = 0.0;
  double burstiness_seconds = 0.0;
  Analyses store_analyses;
  {
    store::ShardStore shards;
    store::Error err = shards.open(store_path);
    if (err.ok()) err = shards.open_all();
    if (!err.ok()) {
      std::cerr << "FAIL: cannot open store: " << err.describe() << "\n";
      return 1;
    }
    const core::Source source(shards);
    auto time_min = [&](double* best, auto&& analysis, auto* result) {
      for (int r = 0; r < repeat; ++r) {
        const double start = now_seconds();
        auto value = analysis(source);
        const double elapsed = now_seconds() - start;
        if (r == 0 || elapsed < *best) *best = elapsed;
        if (r == 0) *result = std::move(value);
      }
    };
    time_min(&lifetime_seconds,
             [](const core::Source& src) { return core::disk_lifetime_report(src); },
             &store_analyses.lifetime);
    time_min(&correlation_seconds, correlation_of, &store_analyses.correlation);
    time_min(&burstiness_seconds, burstiness_of, &store_analyses.burstiness);
  }
  const core::Source in_memory(run.dataset);
  const Analyses reference_analyses{core::disk_lifetime_report(in_memory),
                                    correlation_of(in_memory), burstiness_of(in_memory)};
  const bool analyses_identical = same_analyses(reference_analyses, store_analyses);
  util::set_thread_count(0);

  // Fidelity gates: the mmap path must reproduce the in-memory results
  // exactly, and the query counts must agree with both.
  const bool breakdown_identical = same_breakdown(reference, store_breakdown);
  bool query_identical = grouped.groups.size() == reference.size();
  if (query_identical) {
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto& g = grouped.groups[i];
      if (g.label != reference[i].label || g.disk_years != reference[i].disk_years) {
        query_identical = false;
        break;
      }
      for (std::size_t type = 0; type < 4; ++type) {
        if (g.events_by_type[type] != reference[i].events[type]) query_identical = false;
      }
    }
  }
  const double speedup = rerun_seconds > 0.0 ? pipeline_seconds / rerun_seconds : 0.0;
  const std::uint64_t peak_rss = util::peak_rss_bytes();

  std::cout << "store: " << file_bytes << " bytes";
  if (sharded) std::cout << " across " << shard_count << " shard(s)";
  std::cout << ", build " << build_seconds << " s, mmap+query rerun " << rerun_seconds
            << " s\n"
            << "rerun speedup over full pipeline: " << speedup << "x\n"
            << "analyses over the store: lifetime " << lifetime_seconds << " s, correlation "
            << correlation_seconds << " s, burstiness " << burstiness_seconds << " s\n"
            << "AFR breakdown " << (breakdown_identical ? "bit-identical" : "MISMATCH")
            << ", query counts " << (query_identical ? "identical" : "MISMATCH")
            << ", analyses " << (analyses_identical ? "bit-identical" : "MISMATCH") << "\n";

  std::ostringstream out;
  out << "{\n  \"benchmark\": \"store_rerun\",\n"
      << "  \"scale\": " << scale << ",\n  \"seed\": " << seed
      << ",\n  \"repeat\": " << repeat << ",\n"
      << "  \"events\": " << fleet.event_records()
      << ",\n  \"disk_records\": " << fleet.disk_records() << ",\n"
      << "  \"store_bytes\": " << file_bytes << ",\n"
      << "  \"shards\": " << shard_count << ",\n";
  if (sharded) {
    out << "  \"shard_build_seconds\": [";
    for (std::size_t s = 0; s < shard_build_seconds.size(); ++s) {
      out << (s == 0 ? "" : ", ") << shard_build_seconds[s];
    }
    out << "],\n"
        << "  \"rerun_cold_cross_shard_seconds\": " << rerun_seconds << ",\n";
  }
  out << "  \"peak_rss_bytes\": " << peak_rss << ",\n"
      << "  \"pipeline_seconds\": " << pipeline_seconds << ",\n"
      << "  \"store_build_seconds\": " << build_seconds << ",\n"
      << "  \"rerun_open_query_seconds\": " << rerun_seconds << ",\n"
      << "  \"rerun_speedup\": " << speedup << ",\n"
      << "  \"lifetime_seconds\": " << lifetime_seconds << ",\n"
      << "  \"correlation_seconds\": " << correlation_seconds << ",\n"
      << "  \"burstiness_seconds\": " << burstiness_seconds << ",\n"
      << "  \"breakdown_identical\": " << (breakdown_identical ? "true" : "false") << ",\n"
      << "  \"query_identical\": " << (query_identical ? "true" : "false") << ",\n"
      << "  \"analyses_identical\": " << (analyses_identical ? "true" : "false") << "\n}\n";
  if (util::publish_file(out_path, out.str()) != 0) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  // Provenance manifest next to the result file (BENCH_store.manifest.json).
  obs::RunManifest manifest;
  manifest.tool = "bench/store_bench";
  manifest.seed = seed;
  manifest.scale = scale;
  manifest.threads = util::thread_count();
  manifest.info.emplace_back("store", store_path);
  manifest.info.emplace_back("out", out_path);
  manifest.numbers.emplace_back("pipeline_seconds", pipeline_seconds);
  manifest.numbers.emplace_back("store_build_seconds", build_seconds);
  manifest.numbers.emplace_back("rerun_open_query_seconds", rerun_seconds);
  manifest.numbers.emplace_back("rerun_speedup", speedup);
  manifest.numbers.emplace_back("lifetime_seconds", lifetime_seconds);
  manifest.numbers.emplace_back("correlation_seconds", correlation_seconds);
  manifest.numbers.emplace_back("burstiness_seconds", burstiness_seconds);
  manifest.numbers.emplace_back("store_bytes", static_cast<double>(file_bytes));
  manifest.numbers.emplace_back("shards", static_cast<double>(shard_count));
  manifest.numbers.emplace_back("peak_rss_bytes", static_cast<double>(peak_rss));
  std::string manifest_path = out_path;
  if (manifest_path.ends_with(".json")) {
    manifest_path.resize(manifest_path.size() - 5);
  }
  manifest_path += ".manifest.json";
  if (util::publish_file(manifest_path, obs::manifest_json(manifest)) != 0) {
    std::cerr << "cannot write manifest " << manifest_path << "\n";
    return 1;
  }

  return (breakdown_identical && query_identical && analyses_identical) ? 0 : 1;
}
