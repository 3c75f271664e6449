// Perf baseline for the fleet-parallel execution layer.
//
// Sweeps `simulate_and_analyze` (simulate -> emit logs -> parse -> classify)
// across a thread ladder (default 1/2/4/8), verifies every configuration
// produces the identical dataset, and writes the scaling curve to
// BENCH_parallel.json so later PRs can track the trajectory.
//
//   parallel_baseline [--threads-list=1,2,4,8] [--seed=<n>] [--repeat=<n>]
//                     [--out=<path>]
//
// --repeat runs each timed configuration n times and keeps the fastest run
// (min-of-N suppresses scheduler noise; the dataset is identical each time).
// The serial rung also records the per-stage wall-time breakdown reported by
// the pipeline (PipelineStats::stage_seconds), and the JSON records the
// process peak RSS.
//
// Single-core guard: a scaling curve measured on a 1-hardware-thread host is
// pure scheduler noise dressed up as a speedup, so this bench REFUSES to run
// there — it writes a stub JSON recording the refusal and exits non-zero.
// Regenerate BENCH_parallel.json on a multicore box (docs/performance.md).
//
// Scales measured: 0.25 and 1.0 (the paper's full ~39k-system fleet).
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "model/fleet_config.h"
#include "obs/obs.h"
#include "util/file.h"
#include "util/parallel.h"
#include "util/rss.h"

namespace {

using namespace storsubsim;

struct Rung {
  unsigned threads = 1;
  double seconds = 0.0;
  bool identical = true;  ///< dataset equals the serial rung's, event by event
};

struct Measurement {
  double scale = 0.0;
  std::size_t events = 0;
  core::StageSeconds serial_stages;  // breakdown of the fastest serial run
  std::vector<Rung> sweep;
};

double time_run(const model::FleetConfig& config, std::size_t* events_out,
                core::StageSeconds* stages_out) {
  const auto start = std::chrono::steady_clock::now();
  const auto sd = core::simulate_and_analyze(config);
  const auto stop = std::chrono::steady_clock::now();
  if (events_out != nullptr) *events_out = sd.dataset.events().size();
  if (stages_out != nullptr) *stages_out = sd.pipeline.stage_seconds;
  return std::chrono::duration<double>(stop - start).count();
}

double best_of(int repeat, const model::FleetConfig& config, std::size_t* events_out,
               core::StageSeconds* stages_out) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    core::StageSeconds stages;
    const double seconds = time_run(config, events_out, &stages);
    if (r == 0 || seconds < best) {
      best = seconds;
      if (stages_out != nullptr) *stages_out = stages;
    }
  }
  return best;
}

bool datasets_equal(const core::SimulationDataset& a, const core::SimulationDataset& b) {
  if (a.dataset.events().size() != b.dataset.events().size()) return false;
  for (std::size_t i = 0; i < a.dataset.events().size(); ++i) {
    if (!(a.dataset.events()[i] == b.dataset.events()[i])) return false;
  }
  return true;
}

std::vector<unsigned> parse_threads_list(std::string_view text) {
  std::vector<unsigned> out;
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string token(text.substr(0, comma));
    if (!token.empty()) out.push_back(static_cast<unsigned>(std::stoul(token)));
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> threads_list = {1, 2, 4, 8};
  std::uint64_t seed = 20080226;
  int repeat = 3;
  std::string out_path = "BENCH_parallel.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--threads-list=")) {
      threads_list = parse_threads_list(arg.substr(15));
    } else if (arg.starts_with("--seed=")) {
      seed = std::stoull(std::string(arg.substr(7)));
    } else if (arg.starts_with("--repeat=")) {
      repeat = static_cast<int>(std::stoul(std::string(arg.substr(9))));
    } else if (arg.starts_with("--out=")) {
      out_path = std::string(arg.substr(6));
    }
  }
  if (repeat < 1) repeat = 1;
  if (threads_list.empty() || threads_list.front() != 1) {
    threads_list.insert(threads_list.begin(), 1);  // serial rung anchors the curve
  }

  const unsigned hw = util::hardware_threads();
  if (hw <= 1) {
    // Fail loudly instead of publishing noise: with one hardware thread every
    // "parallel" rung is the serial path plus scheduler jitter, and a
    // committed speedup number from such a box would be fiction.
    std::cerr << "parallel_baseline: this host has " << hw
              << " hardware thread(s); a thread-scaling curve measured here is "
                 "meaningless.\nRefusing to write measurements — rerun on a "
                 "multicore host (see docs/performance.md).\n";
    std::ostringstream out;
    out << "{\n  \"benchmark\": \"simulate_and_analyze\",\n  \"hardware_threads\": " << hw
        << ",\n  \"seed\": " << seed
        << ",\n  \"error\": \"single-core host: thread-scaling sweep refused; rerun on "
           "a multicore box\",\n  \"runs\": []\n}\n";
    if (util::publish_file(out_path, out.str()) != 0) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote refusal stub to " << out_path << "\n";
    return 1;
  }

  std::vector<Measurement> rows;
  for (const double scale : {0.25, 1.0}) {
    const auto config = model::standard_fleet_config(scale, seed);
    Measurement m;
    m.scale = scale;

    util::set_thread_count(1);
    const auto serial_reference = core::simulate_and_analyze(config);

    for (const unsigned t : threads_list) {
      util::set_thread_count(t);
      Rung rung;
      rung.threads = t;
      rung.seconds = best_of(repeat, config,
                             t == 1 ? &m.events : nullptr,
                             t == 1 ? &m.serial_stages : nullptr);
      rung.identical =
          t == 1 || datasets_equal(serial_reference, core::simulate_and_analyze(config));
      m.sweep.push_back(rung);
    }
    rows.push_back(m);

    const auto& st = m.serial_stages;
    std::cout << "scale " << scale << ": " << m.events << " events\n"
              << "  serial stages: simulate " << st.simulate << " s, emit " << st.emit
              << " s, parse " << st.parse << " s, classify " << st.classify << " s, sort "
              << st.sort << " s, snapshot " << st.snapshot << " s\n";
    const double serial_seconds = m.sweep.front().seconds;
    for (const Rung& rung : m.sweep) {
      std::cout << "  " << rung.threads << " thread(s): " << rung.seconds << " s (speedup "
                << serial_seconds / rung.seconds << "x), "
                << (rung.identical ? "bit-identical" : "MISMATCH") << "\n";
    }
  }
  util::set_thread_count(0);

  const std::uint64_t peak_rss = util::peak_rss_bytes();
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"simulate_and_analyze\",\n  \"hardware_threads\": " << hw
      << ",\n  \"seed\": " << seed << ",\n  \"repeat\": " << repeat
      << ",\n  \"peak_rss_bytes\": " << peak_rss << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Measurement& m = rows[i];
    const auto& st = m.serial_stages;
    const double serial_seconds = m.sweep.front().seconds;
    out << "    {\"scale\": " << m.scale << ", \"events\": " << m.events
        << ",\n     \"serial_stage_seconds\": {\"simulate\": " << st.simulate
        << ", \"emit\": " << st.emit << ", \"parse\": " << st.parse
        << ", \"classify\": " << st.classify << ", \"sort\": " << st.sort
        << ", \"snapshot\": " << st.snapshot << "}"
        << ",\n     \"sweep\": [";
    for (std::size_t r = 0; r < m.sweep.size(); ++r) {
      const Rung& rung = m.sweep[r];
      out << (r == 0 ? "" : ", ") << "{\"threads\": " << rung.threads
          << ", \"seconds\": " << rung.seconds
          << ", \"speedup\": " << serial_seconds / rung.seconds
          << ", \"bit_identical\": " << (rung.identical ? "true" : "false") << "}";
    }
    out << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (util::publish_file(out_path, out.str()) != 0) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  // Provenance manifest next to the result file (BENCH_parallel.manifest.json).
  obs::RunManifest manifest;
  manifest.tool = "bench/parallel_baseline";
  manifest.seed = seed;
  manifest.scale = rows.empty() ? 0.0 : rows.back().scale;
  manifest.threads = hw;
  manifest.info.emplace_back("out", out_path);
  manifest.numbers.emplace_back("peak_rss_bytes", static_cast<double>(peak_rss));
  for (const Measurement& m : rows) {
    const std::string prefix = "scale_" + std::to_string(m.scale) + ".";
    const double serial_seconds = m.sweep.front().seconds;
    for (const Rung& rung : m.sweep) {
      manifest.numbers.emplace_back(
          prefix + "threads_" + std::to_string(rung.threads) + ".speedup",
          serial_seconds / rung.seconds);
    }
  }
  std::string manifest_path = out_path;
  if (manifest_path.ends_with(".json")) {
    manifest_path.resize(manifest_path.size() - 5);
  }
  manifest_path += ".manifest.json";
  if (util::publish_file(manifest_path, obs::manifest_json(manifest)) != 0) {
    std::cerr << "cannot write manifest " << manifest_path << "\n";
    return 1;
  }

  bool all_identical = true;
  for (const Measurement& m : rows) {
    for (const Rung& rung : m.sweep) all_identical = all_identical && rung.identical;
  }
  return all_identical ? 0 : 1;
}
