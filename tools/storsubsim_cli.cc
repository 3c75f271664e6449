// storsubsim — command-line front end.
//
// Produces and consumes the same artifacts the paper's pipeline used: text
// support logs and configuration snapshots, as files on disk.
//
//   storsubsim simulate --scale 0.1 --seed 7 --logs fleet.log
//       --snapshot fleet.snap [--precursors]
//   storsubsim analyze  --input fleet.log --snapshot fleet.snap
//       --report afr|afr-total|burstiness|correlation|lifetime|vulnerability|events
//       [--class low-end] [--exclude-h] [--csv]
//   storsubsim analyze  --input fleet.store --report afr [--class low-end]
//   storsubsim inspect  --snapshot fleet.snap
//   storsubsim predict  --logs fleet.log --snapshot fleet.snap
//       [--threshold 3] [--window-days 14] [--horizon-days 30]
//   storsubsim store build --out fleet.store [--scale 0.1 --seed 7]
//       [--logs fleet.log --snapshot fleet.snap]
//   storsubsim store query --store fleet.store [--type disk] [--class low-end]
//       [--family F] [--from-days D] [--to-days D] [--group-by class|type|family]
//   storsubsim store stats --store fleet.store
//
// `analyze`, `inspect` and `predict` know nothing about the simulator's internals —
// they parse whatever log/snapshot files you give them, so logs produced by
// other tools (or hand-edited scenarios) work as well, from a file or a pipe
// (`--logs <(zcat fleet.log.gz)`). `analyze --input PATH`
// sniffs the path: a columnar store (STORCOL1 magic) is mapped and the reports
// come straight off the column spans, a --class/--exclude-h cohort included; a
// shard directory (STORSHARD1 MANIFEST, produced by `store build --shards`) is
// analyzed shard by shard with byte-identical results (see docs/STORE.md);
// anything else is treated as a text log and needs `--snapshot`. The older
// `--logs`/`--store` spellings remain as aliases and produce byte-identical
// output.
//
// Observability (docs/OBSERVABILITY.md): every command accepts
//   --metrics          print the metric snapshot to stderr on success
//   --trace FILE       write a Chrome trace_event JSON of recorded spans
//   --manifest FILE    write a run-manifest JSON (provenance + metrics)
// None of these change a single stdout byte — analysis output is identical
// with observability on or off, at any --threads value.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "core/analysis_render.h"
#include "core/analysis_request.h"
#include "core/pipeline.h"
#include "core/prediction.h"
#include "core/report.h"
#include "core/sharded_build.h"
#include "core/source.h"
#include "core/store_bridge.h"
#include "log/parser.h"
#include "log/snapshot.h"
#include "model/fleet_config.h"
#include "model/time.h"
#include "obs/obs.h"
#include "replicate/replicate.h"
#include "replicate/table.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "sim/log_bridge.h"
#include "sim/precursors.h"
#include "sim/scenario.h"
#include "store/format.h"
#include "store/query.h"
#include "store/shards.h"
#include "util/file.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/rss.h"

using namespace storsubsim;

namespace {

struct Args {
  std::string command;
  std::string subcommand;  ///< second bare token, e.g. `store build`
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;

  bool has_flag(const std::string& name) const {
    for (const auto& f : flags) {
      if (f == name) return true;
    }
    return false;
  }
  std::string get(const std::string& name, const std::string& fallback = "") const {
    const auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  /// A finite number; anything else ends the process (util::flag_double).
  double get_double(const std::string& name, double fallback) const {
    const auto it = options.find(name);
    return it == options.end() ? fallback : util::flag_double(name, it->second);
  }
  /// The --scale of a command that simulates a fleet: above zero, or the
  /// process ends as in get_double.
  double get_scale(double fallback) const {
    const auto it = options.find("scale");
    return it == options.end() ? fallback : util::flag_positive("scale", it->second);
  }
  /// A non-negative integer that fits T (decimal digits only); anything
  /// else ends the process (util::flag_count).
  template <typename T>
  T get_count(const std::string& name, T fallback) const {
    static_assert(std::is_unsigned_v<T>);
    const auto it = options.find(name);
    if (it == options.end()) return fallback;
    return static_cast<T>(util::flag_count(name, it->second, std::numeric_limits<T>::max()));
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  if (argc >= 3 && std::string(argv[2]).rfind("--", 0) != 0) args.subcommand = argv[2];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[arg] = argv[++i];
    } else {
      args.flags.push_back(arg);
    }
  }
  return args;
}

int usage() {
  std::cerr <<
      R"(usage:
  storsubsim simulate --logs FILE --snapshot FILE [--scale S] [--seed N] [--precursors]
                      [--threads N]
  storsubsim analyze  (--input FILE [--snapshot FILE] | --logs FILE --snapshot FILE | --store FILE)
                      --report afr|afr-total|burstiness|correlation|lifetime|vulnerability|events
                      [--class CLASS] [--exclude-h] [--csv]
  storsubsim analyze  --replicates FILE [--csv]
  storsubsim replicate --out FILE [--scale S] [--seed N] [--max-replicates N] [--min-replicates N]
                      [--batch B] [--ci-rel R] [--confidence C] [--csv] [--threads N]
  storsubsim inspect  --snapshot FILE [--csv]
  storsubsim predict  --logs FILE --snapshot FILE [--threshold K] [--window-days W] [--horizon-days H]
  storsubsim store build --out FILE ([--scale S] [--seed N] | --logs FILE --snapshot FILE)
  storsubsim store build --out DIR --shards N [--max-rss-mb M] [--scale S] [--seed N]
  storsubsim store query --store FILE|DIR [--type TYPE] [--class CLASS] [--family F]
                      [--from-days D] [--to-days D] [--group-by class|type|family] [--csv]
  storsubsim store stats --store FILE|DIR [--csv]
  storsubsim serve    --input FILE|DIR --socket PATH [--max-open-shards N] [--threads N]
                      [--replicates FILE]
  storsubsim client   --socket PATH
                      --endpoint afr|afr_by_class|tbf|correlation|lifetime|vulnerability|query|
                                 stats|replicate_summary
                      [--type TYPE] [--class CLASS] [--family F] [--from-days D]
                      [--to-days D] [--group-by class|type|family] [--csv]
observability (any command): [--metrics] [--trace FILE] [--manifest FILE]
)";
  return 2;
}

/// Opens a store file or shard directory with every shard validated — the
/// precondition of a Source over a ShardStore — or prints the typed error.
bool open_store(const std::string& path, store::ShardStore& out) {
  store::Error err = out.open(path);
  if (err.ok()) err = out.open_all();
  if (!err.ok()) {
    std::cerr << "cannot open store " << path << ": " << err.describe() << "\n";
    return false;
  }
  return true;
}

int cmd_simulate(const Args& args) {
  const std::string log_path = args.get("logs");
  const std::string snap_path = args.get("snapshot");
  if (log_path.empty() || snap_path.empty()) return usage();
  const double scale = args.get_scale(0.1);
  const auto seed = args.get_count<std::uint64_t>("seed", 20080226);

  std::cerr << "simulating the standard fleet at scale " << scale << " (seed " << seed
            << ")...\n";
  auto fs = sim::run_standard(scale, seed);

  // Each artifact is rendered whole into one buffer, then published
  // atomically; the buffer is reused for the snapshot.
  log::LineWriter text;
  std::size_t lines = sim::write_failure_logs(text, fs.fleet, fs.result.failures);
  if (args.has_flag("precursors")) {
    const auto precursors =
        sim::generate_precursors(fs.fleet, fs.result, sim::PrecursorParams::standard());
    lines += sim::write_precursor_logs(text, fs.fleet, precursors);
  }
  if (util::publish_file(log_path, text.view()) != 0) {
    std::cerr << "cannot write " << log_path << "\n";
    return 1;
  }
  text.clear();
  log::write_snapshot(text, fs.fleet);
  if (util::publish_file(snap_path, text.view()) != 0) {
    std::cerr << "cannot write " << snap_path << "\n";
    return 1;
  }

  std::cerr << "wrote " << lines << " log lines to " << log_path << " and "
            << fs.fleet.systems().size() << "-system snapshot to " << snap_path << "\n";
  return 0;
}

/// The `--class` / `--exclude-h` cohort selection shared by the log-backed
/// and store-backed analysis paths; false (after saying why) on a bad class.
bool cli_filter(const Args& args, core::Filter* filter) {
  filter->exclude_family_h = args.has_flag("exclude-h");
  const std::string cls = args.get("class");
  if (cls.empty()) return true;
  filter->system_class = model::parse_system_class(cls);
  if (!filter->system_class) std::cerr << "unknown system class '" << cls << "'\n";
  return filter->system_class.has_value();
}

/// The text-log input of analyze, predict and store build: both files
/// mapped, and the dataset read from them. The mappings outlive any log
/// views handed out by `load_text`.
struct TextInput {
  store::MmapFile logs;
  store::MmapFile snapshot;
  core::TextDataset read;
};

/// Maps the log and snapshot files and reads them. Prints the parse summary,
/// or why the input could not be read; false then, and silently when a path
/// is missing.
bool load_text(const std::string& log_path, const std::string& snap_path, TextInput& in,
               std::vector<log::LogView>* records = nullptr) {
  if (log_path.empty() || snap_path.empty()) return false;
  const auto map = [](store::MmapFile& file, const std::string& path) {
    if (file.open(path).ok()) return true;
    std::cerr << "cannot read " << path << "\n";
    return false;
  };
  if (!map(in.logs, log_path) || !map(in.snapshot, snap_path)) return false;
  in.read = core::dataset_from_text(in.logs.view(), in.snapshot.view(), records);
  const log::ParseStats& parse = in.read.parse;
  std::cerr << "parsed " << parse.lines_parsed << "/" << parse.lines_total << " log lines ("
            << parse.lines_malformed << " malformed)\n";
  if (!in.read.error.empty()) {
    std::cerr << "snapshot error: " << in.read.error << "\n";
    return false;
  }
  return true;
}

void print(const core::TextTable& table, const Args& args) {
  if (args.has_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

int cmd_analyze(const Args& args) {
  // `--replicates FILE`: render a stored STORREP1 replication summary —
  // byte-identical to what `storsubsim replicate` printed when it wrote the
  // table, without re-simulating anything.
  const std::string replicates_path = args.get("replicates");
  if (!replicates_path.empty()) {
    replicate::ReplicateSummary summary;
    if (const auto err = replicate::read_table(replicates_path, &summary); !err.ok()) {
      std::cerr << "cannot read replicate table " << replicates_path << ": "
                << err.describe() << "\n";
      return 1;
    }
    std::cout << replicate::render_summary(summary, args.has_flag("csv"));
    return 0;
  }
  // `--input FILE` is the unified spelling: the file is sniffed for the
  // STORCOL1 magic and routed to the store or log path. `--store` / `--logs`
  // remain as aliases with byte-identical output.
  std::string store_path = args.get("store");
  std::string log_path = args.get("logs");
  const std::string input = args.get("input");
  if (!input.empty()) {
    if (!store_path.empty() || !log_path.empty()) {
      std::cerr << "--input replaces --logs/--store; pass only one spelling\n";
      return usage();
    }
    if (store::store_shape(input) != store::StoreShape::kNone) {
      store_path = input;
    } else {
      log_path = input;
    }
  }
  // A store file and a shard directory both open as a ShardStore; analyses
  // over either are byte-identical.
  const bool have_store = !store_path.empty();
  store::ShardStore store;
  if (have_store && !open_store(store_path, store)) return 1;
  const std::string report = args.get("report", "afr");
  core::Filter filter;
  if (!cli_filter(args, &filter)) return usage();

  // Text input is read into a Dataset; a store is read in place. Either way
  // the cohort is the input's Source narrowed by the filter, and every
  // report reads its rows through it.
  TextInput text;
  if (!have_store && !load_text(log_path, args.get("snapshot"), text)) return usage();
  const core::Source source(
      have_store ? core::Source(store) : core::Source(*text.read.dataset), filter);

  // The table-producing reports go through core::AnalysisRequest +
  // core::render_statistic — the same typed request and renderer the
  // storsimd serve endpoints execute, which is what makes the daemon
  // byte-identical to this offline path (docs/SERVE.md, docs/API.md).
  const bool csv = args.has_flag("csv");
  const auto statistic = core::statistic_from_report(report);
  if (statistic.has_value() && *statistic != core::StatisticId::kQuery) {
    core::AnalysisRequest request;
    if (const auto err = core::AnalysisRequest::from_params(*statistic, {}, csv, &request);
        !err.ok()) {
      std::cerr << err.message << "\n";
      return 1;
    }
    std::cout << core::render_statistic(source, request);
  } else if (report == "events") {
    std::cout << core::render_events(source, csv);
  } else {
    std::cerr << "unknown report '" << report << "'\n";
    return usage();
  }
  return 0;
}

int cmd_inspect(const Args& args) {
  // Fleet overview from a snapshot alone (no failure logs needed).
  const std::string snap_path = args.get("snapshot");
  if (snap_path.empty()) return usage();
  store::MmapFile snap;
  if (!snap.open(snap_path).ok()) {
    std::cerr << "cannot read " << snap_path << "\n";
    return 1;
  }
  obs::Span span("pipeline.snapshot");
  auto snapshot = log::parse_snapshot(snap.view());
  span.stop();
  if (!snapshot.ok()) {
    std::cerr << "snapshot error: " << snapshot.error << "\n";
    return 1;
  }
  const auto inventory = std::make_shared<log::Inventory>(std::move(snapshot.inventory));
  const core::Dataset dataset(inventory, {});

  core::TextTable table({"class", "systems", "shelves", "RAID groups", "disk records",
                         "disk-years", "dual-path systems"});
  for (const auto cls : model::kAllSystemClasses) {
    core::Filter f;
    f.system_class = cls;
    const core::Source cohort(dataset, f);
    const core::CohortCount count = cohort.count();
    if (count.systems == 0) continue;
    std::size_t dual = 0;
    cohort.for_each_system(
        [&](const log::InventorySystem& sys) { dual += sys.paths == model::PathConfig::kDualPath; });
    table.add_row({std::string(model::to_string(cls)), std::to_string(count.systems),
                   std::to_string(count.shelves), std::to_string(count.raid_groups),
                   std::to_string(count.disk_records), core::fmt(cohort.disk_years().total, 0),
                   std::to_string(dual)});
  }
  print(table, args);

  core::TextTable models({"disk model", "systems", "disk records"});
  std::map<std::string, std::pair<std::size_t, std::size_t>> by_model;
  for (const auto& sys : inventory->systems) {
    ++by_model[model::to_string(sys.disk_model)].first;
  }
  for (const auto& d : inventory->disks) {
    ++by_model[model::to_string(d.model)].second;
  }
  for (const auto& [name, counts] : by_model) {
    models.add_row({name, std::to_string(counts.first), std::to_string(counts.second)});
  }
  print(models, args);
  return 0;
}

int cmd_predict(const Args& args) {
  core::PredictorConfig config;
  config.threshold = args.get_count<std::size_t>("threshold", 3);
  config.window_seconds = args.get_double("window-days", 14.0) * model::kSecondsPerDay;
  config.horizon_seconds = args.get_double("horizon-days", 30.0) * model::kSecondsPerDay;

  TextInput text;
  std::vector<log::LogView> records;
  if (!load_text(args.get("logs"), args.get("snapshot"), text, &records)) return usage();
  core::Filter filter;
  if (!cli_filter(args, &filter)) return usage();
  const core::Source cohort(*text.read.dataset, filter);
  const auto precursors = sim::extract_precursors(records);
  if (precursors.empty()) {
    std::cerr << "no component-error records in the logs — simulate with --precursors\n";
    return 1;
  }

  core::TextTable table({"signal -> target", "alarms", "precision", "recall", "median lead",
                         "false alarms / 1000 dy"});
  const struct {
    sim::PrecursorKind signal;
    model::FailureType target;
  } pairs[] = {
      {sim::PrecursorKind::kMediumError, model::FailureType::kDisk},
      {sim::PrecursorKind::kLinkReset, model::FailureType::kPhysicalInterconnect},
      {sim::PrecursorKind::kCmdTimeout, model::FailureType::kPerformance},
  };
  for (const auto& p : pairs) {
    config.signal = p.signal;
    config.target = p.target;
    const auto r = core::evaluate_predictor(cohort, precursors, config);
    table.add_row({std::string(sim::to_string(p.signal)) + " -> " +
                       std::string(model::to_string(p.target)),
                   std::to_string(r.alarms), core::fmt_pct(r.precision(), 1),
                   core::fmt_pct(r.recall(), 1),
                   core::fmt(r.median_lead_seconds / model::kSecondsPerDay, 1) + " days",
                   core::fmt(1000.0 * r.false_alarms_per_disk_year, 2)});
  }
  print(table, args);
  return 0;
}

/// Every store build leaves a provenance manifest beside its artifact, so a
/// store can always be traced back to the run that produced it. `shards` is
/// recorded for a shard directory only (0 = a single file). Returns the
/// command's exit status.
int publish_build_manifest(const std::string& manifest_path, const std::string& out,
                           const char* source, std::uint64_t seed, double scale,
                           std::uint64_t events, std::uint64_t disk_records,
                           std::size_t shards, std::uint64_t peak_rss_bytes) {
  obs::RunManifest manifest;
  manifest.tool = "storsubsim store build";
  manifest.seed = seed;
  manifest.scale = scale;
  manifest.threads = util::thread_count();
  manifest.info.emplace_back("out", out);
  manifest.info.emplace_back("source", source);
  manifest.numbers.emplace_back("events", static_cast<double>(events));
  manifest.numbers.emplace_back("disk_records", static_cast<double>(disk_records));
  if (shards > 0) manifest.numbers.emplace_back("shards", static_cast<double>(shards));
  manifest.numbers.emplace_back("peak_rss_bytes", static_cast<double>(peak_rss_bytes));
  if (util::publish_file(manifest_path, obs::manifest_json(manifest)) != 0) {
    std::cerr << "cannot write manifest " << manifest_path << "\n";
    return 1;
  }
  return 0;
}

/// `store build --shards N [--max-rss-mb M]`: the streaming sharded build.
/// Simulates the fleet in bounded chunks and writes a shard directory whose
/// analyses are byte-identical to the monolithic store (docs/STORE.md).
int cmd_store_build_sharded(const Args& args, const std::string& out) {
  const auto seed = args.get_count<std::uint64_t>("seed", 20080226);
  const double scale = args.get_scale(0.1);

  core::ShardedBuildOptions options;
  options.shards = args.get_count<std::size_t>("shards", 0);
  options.max_rss_mb = args.get_count<std::uint64_t>("max-rss-mb", 0);
  if (options.shards == 0 && options.max_rss_mb == 0) {
    std::cerr << "sharded build needs --shards N and/or --max-rss-mb M\n";
    return usage();
  }

  auto config = model::standard_fleet_config(scale, seed);
  std::cerr << "building sharded store at scale " << scale << " (seed " << seed << ")";
  if (options.max_rss_mb > 0) std::cerr << " under " << options.max_rss_mb << " MiB";
  std::cerr << "...\n";

  core::ShardedBuildResult result;
  const auto err = core::build_sharded_store(out, config, options, &result);
  if (!err.ok()) {
    std::cerr << "cannot build sharded store " << out << ": " << err.describe() << "\n";
    return 1;
  }
  std::cerr << "wrote " << result.events << "-event store (" << result.disk_records
            << " disk records) as " << result.shards << " shards to " << out << "\n";
  if (result.peak_rss_bytes > 0) {
    std::cerr << "peak RSS " << result.peak_rss_bytes / (1024 * 1024) << " MiB\n";
  }

  return publish_build_manifest(out + "/build.manifest.json", out, "simulate-sharded", seed,
                                scale, result.events, result.disk_records, result.shards,
                                result.peak_rss_bytes);
}

int cmd_store_build(const Args& args) {
  const std::string out = args.get("out");
  if (out.empty()) return usage();
  if (args.options.contains("shards") || args.options.contains("max-rss-mb")) {
    return cmd_store_build_sharded(args, out);
  }
  const std::string log_path = args.get("logs");
  const std::string snap_path = args.get("snapshot");
  const bool from_logs = !log_path.empty() && !snap_path.empty();
  // Provenance recorded in the header; unknown (0) when converting foreign
  // log/snapshot artifacts unless given explicitly.
  const auto seed = args.get_count<std::uint64_t>("seed", from_logs ? 0 : 20080226);
  // A fleet to simulate needs a positive scale; converted artifacts take any
  // provenance value.
  const double scale = from_logs ? args.get_double("scale", 0.0) : args.get_scale(0.1);

  std::optional<core::SimulationDataset> run;
  if (from_logs) {
    TextInput text;
    if (!load_text(log_path, snap_path, text)) return 1;
    run.emplace(core::SimulationDataset{std::move(*text.read.dataset), sim::SimCounters{},
                                        text.read.pipeline});
  } else {
    std::cerr << "simulating the standard fleet at scale " << scale << " (seed " << seed
              << ")...\n";
    run.emplace(core::simulate_and_analyze(model::standard_fleet_config(scale, seed)));
  }

  const auto err = core::write_store(out, *run, seed, scale);
  if (!err.ok()) {
    std::cerr << "cannot write store " << out << ": " << err.describe() << "\n";
    return 1;
  }
  const core::Source fleet(run->dataset);
  std::cerr << "wrote " << fleet.event_records() << "-event store (" << fleet.disk_records()
            << " disk records) to " << out << "\n";

  return publish_build_manifest(out + ".manifest.json", out, from_logs ? "logs" : "simulate",
                                seed, scale, fleet.event_records(), fleet.disk_records(), 0,
                                util::peak_rss_bytes());
}

/// The `store query` / `client` query flags, as the raw strings the one
/// validator takes.
core::RequestParams query_params(const Args& args) {
  core::RequestParams params;
  params.type = args.get("type");
  params.cls = args.get("class");
  params.family = args.get("family");
  params.group_by = args.get("group-by");
  if (args.options.contains("from-days")) params.from_days = args.get_double("from-days", 0.0);
  if (args.options.contains("to-days")) params.to_days = args.get_double("to-days", 0.0);
  return params;
}

int cmd_store_query(const Args& args) {
  const std::string path = args.get("store");
  if (path.empty()) return usage();
  store::ShardStore store;
  if (!open_store(path, store)) return 1;

  // Flags travel as raw strings into the one shared validator
  // (core::AnalysisRequest::from_params) — the daemon runs the identical
  // code on its JSON params, so a bad value gets the same message here and
  // over the socket.
  core::AnalysisRequest request;
  if (const auto err = core::AnalysisRequest::from_params(
          core::StatisticId::kQuery, query_params(args), args.has_flag("csv"), &request);
      !err.ok()) {
    std::cerr << err.message << "\n";
    return 1;
  }
  const store::Query& query = request.query;

  const store::QueryResult result = store::run_query(store, query);
  std::cout << core::render_query_result(result, args.has_flag("csv"));
  std::cerr << "scanned " << result.stats.rows_scanned << " rows in "
            << result.stats.blocks_scanned << " blocks (" << result.stats.blocks_pruned
            << " pruned by the time index), matched " << result.stats.rows_matched << "\n";
  return 0;
}

/// `store stats` over a shard directory: MANIFEST summary plus one row per
/// shard, without fully opening any shard.
int cmd_store_stats_sharded(const Args& args, const std::string& path) {
  store::ShardStore shards;
  if (const auto err = shards.open(path); !err.ok()) {
    std::cerr << "cannot open store " << path << ": " << err.describe() << "\n";
    return 1;
  }
  const auto& m = shards.manifest();

  core::TextTable header({"field", "value"});
  header.add_row({"manifest version", std::to_string(m.version)});
  header.add_row({"shards", std::to_string(shards.shard_count())});
  header.add_row({"seed", std::to_string(m.seed)});
  header.add_row({"scale", core::fmt(m.scale, 3)});
  header.add_row({"horizon (days)", core::fmt(m.horizon_seconds / model::kSecondsPerDay, 1)});
  header.add_row({"events", std::to_string(m.events)});
  header.add_row({"systems", std::to_string(m.systems)});
  header.add_row({"shelves", std::to_string(m.shelves)});
  header.add_row({"disk records", std::to_string(m.disks_total)});
  header.add_row({"RAID groups", std::to_string(m.raid_groups)});
  header.add_row({"disk-years", core::fmt(m.exposure.total_disk_years, 0)});
  header.add_row({"log lines written", std::to_string(m.meta.log_lines_written)});
  header.add_row({"log lines parsed", std::to_string(m.meta.log_lines_parsed)});
  header.add_row({"failures classified", std::to_string(m.meta.failures_classified)});
  header.add_row({"duplicates dropped", std::to_string(m.meta.duplicates_dropped)});
  if (m.peak_rss_bytes > 0) {
    header.add_row({"build peak RSS (MiB)", std::to_string(m.peak_rss_bytes / (1024 * 1024))});
  }
  print(header, args);

  core::TextTable per_shard(
      {"shard", "systems", "sys range", "disk records", "events", "bytes"});
  for (std::size_t i = 0; i < shards.shard_count(); ++i) {
    const auto& info = shards.info(i);
    per_shard.add_row({info.file, std::to_string(info.systems),
                       std::to_string(info.sys_begin) + ".." + std::to_string(info.sys_end),
                       std::to_string(info.disks_total), std::to_string(info.events),
                       std::to_string(info.file_size)});
  }
  print(per_shard, args);
  return 0;
}

int cmd_store_stats(const Args& args) {
  const std::string path = args.get("store");
  if (path.empty()) return usage();
  if (store::store_shape(path) == store::StoreShape::kShardDir) {
    return cmd_store_stats_sharded(args, path);
  }
  store::EventStore es;
  if (const auto err = es.open(path); !err.ok()) {
    std::cerr << "cannot open store " << path << ": " << err.describe() << "\n";
    return 1;
  }
  const auto& h = es.header();
  const auto& m = es.meta();
  const auto& exposure = es.exposure();

  core::TextTable header({"field", "value"});
  header.add_row({"format version", std::to_string(h.format_version)});
  header.add_row({"file size", std::to_string(h.file_size)});
  header.add_row({"seed", std::to_string(h.seed)});
  header.add_row({"scale", core::fmt(h.scale, 3)});
  header.add_row({"horizon (days)", core::fmt(h.horizon_seconds / model::kSecondsPerDay, 1)});
  header.add_row({"events", std::to_string(h.event_count)});
  header.add_row({"systems", std::to_string(h.system_count)});
  header.add_row({"shelves", std::to_string(h.shelf_count)});
  header.add_row({"disk records", std::to_string(h.disk_count)});
  header.add_row({"RAID groups", std::to_string(h.raid_group_count)});
  header.add_row({"disk-years", core::fmt(exposure.total_disk_years, 0)});
  header.add_row({"log lines written", std::to_string(m.log_lines_written)});
  header.add_row({"log lines parsed", std::to_string(m.log_lines_parsed)});
  header.add_row({"failures classified", std::to_string(m.failures_classified)});
  header.add_row({"duplicates dropped", std::to_string(m.duplicates_dropped)});
  print(header, args);

  core::TextTable shards({"class", "events", "blocks", "systems", "disk-years"});
  for (const auto cls : model::kAllSystemClasses) {
    const std::size_t c = model::index_of(cls);
    shards.add_row({std::string(model::to_string(cls)),
                    std::to_string(es.events(cls).size()),
                    std::to_string(es.blocks(cls).size()),
                    std::to_string(exposure.class_system_count[c]),
                    core::fmt(exposure.class_disk_years[c], 0)});
  }
  print(shards, args);
  return 0;
}

/// `storsubsim replicate`: the Monte Carlo replication driver
/// (docs/REPLICATION.md). Runs keyed-substream replicates of the whole
/// simulate -> classify pipeline, prints the CI summary, and writes the
/// STORREP1 table plus a provenance manifest beside it.
int cmd_replicate(const Args& args) {
  const std::string out = args.get("out");
  if (out.empty()) return usage();

  replicate::ReplicateOptions options;
  options.scale = args.get_scale(options.scale);
  options.seed = args.get_count<std::uint64_t>("seed", 20080226);
  options.max_replicates = args.get_count("max-replicates", options.max_replicates);
  options.min_replicates = args.get_count("min-replicates", options.min_replicates);
  options.batch = args.get_count("batch", options.batch);
  options.confidence = args.get_double("confidence", options.confidence);
  options.ci_rel = args.get_double("ci-rel", options.ci_rel);

  std::cerr << "replicating the standard fleet at scale " << options.scale << " (seed "
            << options.seed << ", up to " << options.max_replicates << " replicates)...\n";
  const auto summary = replicate::run_replication(options);
  if (const auto err = replicate::write_table(out, summary); !err.ok()) {
    std::cerr << "cannot write replicate table " << out << ": " << err.describe() << "\n";
    return 1;
  }
  std::cout << replicate::render_summary(summary, args.has_flag("csv"));
  std::cerr << "wrote " << summary.replicates << "-replicate table to " << out << " ("
            << replicate::to_string(summary.stop_reason) << ")\n";

  // Replicate-mode provenance beside the artifact (same pattern as store
  // build): which substream seeded the replicates, how many ran, and why
  // the run stopped — enough to reproduce or audit the table.
  std::size_t converged = 0;
  std::size_t min_stopped_at = 0;
  for (const auto& stat : summary.stats) {
    if (stat.stopped_at == 0) continue;
    ++converged;
    if (min_stopped_at == 0 || stat.stopped_at < min_stopped_at) {
      min_stopped_at = stat.stopped_at;
    }
  }
  obs::RunManifest manifest;
  manifest.tool = "storsubsim replicate";
  manifest.seed = options.seed;
  manifest.scale = options.scale;
  manifest.threads = util::thread_count();
  manifest.info.emplace_back("out", out);
  manifest.info.emplace_back("seed_stream", std::string(replicate::kSeedStream));
  manifest.info.emplace_back("stop_reason",
                             std::string(replicate::to_string(summary.stop_reason)));
  manifest.numbers.emplace_back("replicates", static_cast<double>(summary.replicates));
  manifest.numbers.emplace_back("max_replicates",
                                static_cast<double>(options.max_replicates));
  manifest.numbers.emplace_back("ci_rel", options.ci_rel);
  manifest.numbers.emplace_back("converged_statistics", static_cast<double>(converged));
  manifest.numbers.emplace_back("min_stopped_at", static_cast<double>(min_stopped_at));
  manifest.numbers.emplace_back("peak_rss_bytes",
                                static_cast<double>(util::peak_rss_bytes()));
  const std::string manifest_path = out + ".manifest.json";
  if (util::publish_file(manifest_path, obs::manifest_json(manifest)) != 0) {
    std::cerr << "cannot write manifest " << manifest_path << "\n";
    return 1;
  }
  return 0;
}

int cmd_store(const Args& args) {
  if (args.subcommand == "build") return cmd_store_build(args);
  if (args.subcommand == "query") return cmd_store_query(args);
  if (args.subcommand == "stats") return cmd_store_stats(args);
  return usage();
}

// --- storsimd (docs/SERVE.md) -----------------------------------------------

/// Drain self-pipe fd for the signal handler; -1 while no daemon runs.
std::atomic<int> g_serve_drain_fd{-1};

/// SIGINT/SIGTERM → one byte down the daemon's drain pipe. write() is
/// async-signal-safe; everything else happens on the serve thread.
void serve_signal_handler(int /*signum*/) {
  const int fd = g_serve_drain_fd.load();
  if (fd >= 0) {
    const char byte = 'd';
    const ssize_t rc = write(fd, &byte, 1);
    static_cast<void>(rc);
  }
}

int cmd_serve(const Args& args) {
  serve::ServeOptions options;
  options.input = args.get("input");
  options.socket_path = args.get("socket");
  if (options.input.empty() || options.socket_path.empty()) return usage();
  options.max_open_shards = args.get_count<std::size_t>("max-open-shards", 0);
  options.threads = args.get_count<unsigned>("threads", 0);
  options.replicates = args.get("replicates");

  serve::Daemon daemon;
  if (const auto err = daemon.start(options); !err.ok()) {
    std::cerr << "cannot start storsimd: " << err.describe() << "\n";
    return 1;
  }
  g_serve_drain_fd.store(daemon.drain_signal_fd());
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::cerr << "storsimd serving " << options.input
            << (daemon.sharded() ? " (sharded)" : "") << " on "
            << options.socket_path << "\n";
  const auto err = daemon.serve();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_drain_fd.store(-1);
  if (!err.ok()) {
    std::cerr << "storsimd failed: " << err.describe() << "\n";
    return 1;
  }
  std::cerr << "storsimd drained\n";
  return 0;
}

int cmd_client(const Args& args) {
  const std::string socket_path = args.get("socket");
  serve::Request request;
  request.endpoint = args.get("endpoint");
  if (socket_path.empty() || request.endpoint.empty()) return usage();
  request.csv = args.has_flag("csv");
  request.params = query_params(args);

  serve::Client client;
  if (const auto err = client.connect(socket_path); !err.ok()) {
    std::cerr << "cannot reach storsimd: " << err.describe() << "\n";
    return 1;
  }
  serve::Response response;
  if (const auto err = client.request(request, &response); !err.ok()) {
    std::cerr << "request failed: " << err.describe() << "\n";
    return 1;
  }
  if (!response.ok) {
    std::cerr << "daemon error [" << response.error_code << "]: "
              << response.message << "\n";
    return 1;
  }
  // The table bytes are exactly what the offline command prints to stdout.
  std::cout << response.table;
  return 0;
}

int dispatch(const Args& args) {
  if (args.command == "simulate") return cmd_simulate(args);
  if (args.command == "analyze") return cmd_analyze(args);
  if (args.command == "inspect") return cmd_inspect(args);
  if (args.command == "predict") return cmd_predict(args);
  if (args.command == "replicate") return cmd_replicate(args);
  if (args.command == "store") return cmd_store(args);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "client") return cmd_client(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // 0 = auto (STORSIM_THREADS env var, else hardware concurrency). Results
  // are identical for any thread count; see docs/performance.md.
  util::set_thread_count(args.get_count<unsigned>("threads", 0));

  // Observability is opt-in and side-channel only: stdout (the analysis
  // output) carries the same bytes whether these flags are set or not.
  const std::string trace_path = args.get("trace");
  if (!trace_path.empty()) obs::set_tracing_enabled(true);

  const int rc = dispatch(args);
  if (rc != 0) return rc;

  if (!trace_path.empty() && util::publish_file(trace_path, obs::trace_json()) != 0) {
    std::cerr << "cannot write trace " << trace_path << "\n";
    return 1;
  }
  const std::string manifest_path = args.get("manifest");
  if (!manifest_path.empty()) {
    obs::RunManifest manifest;
    manifest.tool = "storsubsim " + args.command +
                    (args.subcommand.empty() ? "" : " " + args.subcommand);
    manifest.seed = args.get_count<std::uint64_t>("seed", 0);
    manifest.scale = args.get_double("scale", 0.0);
    manifest.threads = util::thread_count();
    for (const char* key :
         {"logs", "snapshot", "store", "input", "out", "report", "replicates"}) {
      const std::string value = args.get(key);
      if (!value.empty()) manifest.info.emplace_back(key, value);
    }
    // Peak RSS of the whole run (VmHWM; 0 where the platform hides it), so
    // every manifest records the memory footprint alongside the timings.
    manifest.numbers.emplace_back("peak_rss_bytes",
                                  static_cast<double>(util::peak_rss_bytes()));
    if (util::publish_file(manifest_path, obs::manifest_json(manifest)) != 0) {
      std::cerr << "cannot write manifest " << manifest_path << "\n";
      return 1;
    }
  }
  if (args.has_flag("metrics")) {
    std::cerr << obs::registry().snapshot().to_text();
  }
  return 0;
}
