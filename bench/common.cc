#include "common.h"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "store/shards.h"
#include "util/file.h"
#include "util/flags.h"
#include "util/parallel.h"

namespace storsubsim::bench {

Options parse_options(int& argc, char** argv) {
  Options options;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--report-only") {
      options.run_benchmarks = false;
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg.starts_with("--scale=")) {
      options.scale = util::flag_double("scale", arg.substr(8));
    } else if (arg.starts_with("--seed=")) {
      options.seed = util::flag_count("seed", arg.substr(7));
    } else if (arg.starts_with("--threads=")) {
      options.threads = static_cast<unsigned>(
          util::flag_count("threads", arg.substr(10), std::numeric_limits<unsigned>::max()));
    } else if (arg.starts_with("--store=")) {
      options.store = std::string(arg.substr(8));
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg.starts_with("--trace=")) {
      options.trace = std::string(arg.substr(8));
    } else if (arg.starts_with("--manifest=")) {
      options.manifest = std::string(arg.substr(11));
    } else {
      argv[out++] = argv[i];  // leave for google-benchmark
    }
  }
  argc = out;
  util::set_thread_count(options.threads);
  if (!options.trace.empty()) obs::set_tracing_enabled(true);
  return options;
}

void finish_run(const std::string& tool, const Options& options,
                const std::vector<std::pair<std::string, double>>& numbers) {
  if (!options.trace.empty() && util::publish_file(options.trace, obs::trace_json()) != 0) {
    std::cerr << "cannot write trace " << options.trace << "\n";
    std::exit(1);
  }
  if (!options.manifest.empty()) {
    obs::RunManifest manifest;
    manifest.tool = tool;
    manifest.seed = options.seed;
    manifest.scale = options.scale;
    manifest.threads = util::thread_count();
    if (!options.store.empty()) manifest.info.emplace_back("store", options.store);
    manifest.numbers = numbers;
    if (util::publish_file(options.manifest, obs::manifest_json(manifest)) != 0) {
      std::cerr << "cannot write manifest " << options.manifest << "\n";
      std::exit(1);
    }
  }
  if (options.metrics) {
    std::cerr << obs::registry().snapshot().to_text();
  }
}

const StandardRun& standard_run(const Options& options) {
  if (!options.store.empty()) {
    // Prebuilt-store fast path: mmap instead of simulating. Cached on path
    // so repeated report sections don't re-open the file.
    static std::mutex store_mutex;
    static std::string store_path;
    static std::unique_ptr<store::ShardStore> shards;
    static std::optional<StandardRun> cached;
    std::lock_guard<std::mutex> lock(store_mutex);
    if (!cached || store_path != options.store) {
      shards = std::make_unique<store::ShardStore>();
      store::Error err = shards->open(options.store);
      if (err.ok()) err = shards->open_all();
      if (!err.ok()) {
        std::cerr << "cannot open store " << options.store << ": " << err.describe() << "\n";
        std::exit(1);
      }
      // The meta block carries the run's counters.
      const store::StoreMeta& m = shards->meta();
      cached = StandardRun{core::Source(*shards), m.log_lines_written, m.log_lines_parsed,
                           m.failures_classified};
      store_path = options.store;
    }
    return *cached;
  }

  using Key = std::pair<double, std::uint64_t>;
  struct Entry {
    Key key;
    std::unique_ptr<core::SimulationDataset> dataset;  ///< what `run` reads
    StandardRun run;
  };
  // LRU of at most 2 runs (most-recently-used last): a seed or scale
  // sweep touches many keys but only ever compares neighbors. List nodes
  // never move, so a returned run stays put while others come and go.
  static std::mutex mutex;
  static std::list<Entry> cache;
  constexpr std::size_t kMaxEntries = 2;

  const Key key{options.scale, options.seed};
  std::lock_guard<std::mutex> lock(mutex);
  for (auto it = cache.begin(); it != cache.end(); ++it) {
    if (it->key == key) {
      cache.splice(cache.end(), cache, it);
      return cache.back().run;
    }
  }
  auto sd = std::make_unique<core::SimulationDataset>(
      core::simulate_and_analyze(model::standard_fleet_config(options.scale, options.seed)));
  StandardRun run{core::Source(sd->dataset), sd->pipeline.log_lines_written,
                  sd->pipeline.log_lines_parsed, sd->pipeline.failures_classified};
  if (cache.size() >= kMaxEntries) cache.pop_front();
  cache.push_back(Entry{key, std::move(sd), std::move(run)});
  return cache.back().run;
}

void print_banner(std::ostream& out, const std::string& exhibit, const Options& options,
                  const StandardRun& run) {
  const core::Source& fleet = run.source;
  const core::CohortCount count = fleet.count();
  out << "\n================================================================\n"
      << exhibit << "\n"
      << "fleet scale " << options.scale << " (seed " << options.seed << "): "
      << count.systems << " systems, " << count.shelves << " shelves, " << count.disk_records
      << " disk records, " << core::fmt(fleet.disk_years().total, 0) << " disk-years, "
      << fleet.event_records() << " subsystem failures\n"
      << "pipeline: " << run.log_lines_written << " log lines emitted, "
      << run.log_lines_parsed << " parsed, " << run.failures_classified
      << " failures classified\n"
      << "================================================================\n";
}

void print_table(std::ostream& out, const core::TextTable& table, const Options& options) {
  if (options.csv) {
    table.print_csv(out);
  } else {
    table.print(out);
  }
  out << "\n";
}

std::string afr_cell(const core::AfrBreakdown& b, model::FailureType type) {
  return core::fmt(b.afr_pct(type), 2);
}

}  // namespace storsubsim::bench
