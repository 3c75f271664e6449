// Decode-kernel throughput: how close the store scan path runs to memory
// bandwidth.
//
// Builds a store at the configured scale, then measures the block-decode
// kernels (store/decode.h) in GB/s over that store's real columns:
//
//   * varint batch decode  — decode_varint_batch vs the per-value
//                            decode_varint loop the reader used before;
//   * fused prefix-sum     — delta_zigzag_prefix over the decoded deltas;
//   * predicate bitmaps    — bitmap_eq_u8 / bitmap_eq4_u8 over the type
//                            column and bitmap_time_window over the decoded
//                            times, on the wide path and the scalar path;
//   * crc32                — the dispatched crc32 (the carry-less-multiply
//                            fold where the CPU has it), slice-by-8 via the
//                            forced-scalar path, and the bytewise loop both
//                            replaced (kept verbatim below), over the whole
//                            file image — the dominant cold-open cost;
//   * cold query           — end-to-end open + AFR breakdown + grouped
//                            query, wide vs scalar kernel path.
//
// Results go to BENCH_decode.json; provenance goes through the shared
// bench::finish_run manifest like every other harness.
//
//   decode_bench [--scale=<f>] [--seed=<n>] [--repeat=<n>] [--out=<path>]
//                [--store=<path>] [--manifest=<path>] [--trace=<path>]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "core/afr.h"
#include "core/pipeline.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "store/decode.h"
#include "store/query.h"
#include "store/reader.h"
#include "util/file.h"
#include "util/flags.h"

namespace {

using namespace storsubsim;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The bytewise CRC32 the store shipped with, kept verbatim as the
/// before-reference for the slice-by-8 and fold paths of store::crc32.
struct LegacyCrc32Table {
  std::uint32_t entries[256] = {};
  constexpr LegacyCrc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1u) : c >> 1u;
      }
      entries[i] = c;
    }
  }
};

constexpr LegacyCrc32Table kLegacyCrcTable;

std::uint32_t legacy_crc32(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c = kLegacyCrcTable.entries[(c ^ p[i]) & 0xffu] ^ (c >> 8u);
  }
  return c ^ 0xffffffffu;
}

/// Min-of-`repeat` wall time of fn(), with enough inner iterations that one
/// sample processes at least ~256 MB (small columns would otherwise time in
/// the clock's noise floor).
template <typename Fn>
double time_kernel(int repeat, std::size_t bytes_per_iter, Fn&& fn) {
  std::size_t iters = 1;
  if (bytes_per_iter > 0 && bytes_per_iter < (std::size_t{256} << 20)) {
    iters = ((std::size_t{256} << 20) + bytes_per_iter - 1) / bytes_per_iter;
  }
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double per_iter = (now_seconds() - t0) / static_cast<double>(iters);
    if (r == 0 || per_iter < best) best = per_iter;
  }
  return best;
}

double gbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e9 : 0.0;
}

/// One measured store column set: the four class shards' time columns (raw
/// varint bytes) plus decoded deltas/times and the type column.
struct ShardData {
  std::vector<std::string> varint_bytes;          // per shard
  std::vector<std::vector<std::uint64_t>> deltas; // per shard, decoded
  std::vector<std::vector<double>> times;         // per shard
  std::vector<std::vector<std::uint8_t>> types;   // per shard
  std::size_t varint_total = 0;
  std::size_t rows_total = 0;
};

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::parse_options(argc, argv);
  int repeat = 3;
  std::string out_path = "BENCH_decode.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--repeat=")) {
      repeat = static_cast<int>(
          util::flag_count("repeat", arg.substr(9), std::numeric_limits<int>::max()));
    } else if (arg.starts_with("--out=")) {
      out_path = std::string(arg.substr(6));
    }
  }
  if (repeat < 1) repeat = 1;
  if (options.manifest.empty()) {
    std::string base = out_path;
    if (base.ends_with(".json")) base.resize(base.size() - 5);
    options.manifest = base + ".manifest.json";
  }
  std::string store_path = options.store;

  // --- build (or reuse) the store -------------------------------------------
  if (store_path.empty()) {
    store_path = "BENCH_decode.store";
    const auto run =
        core::simulate_and_analyze(model::standard_fleet_config(options.scale, options.seed));
    if (const auto err = core::write_store(store_path, run, options.seed, options.scale);
        !err.ok()) {
      std::cerr << "FAIL: cannot write store: " << err.describe() << "\n";
      return 1;
    }
  }
  store::EventStore es;
  if (const auto err = es.open(store_path); !err.ok()) {
    std::cerr << "FAIL: cannot open store: " << err.describe() << "\n";
    return 1;
  }

  ShardData data;
  for (const auto cls : model::kAllSystemClasses) {
    const store::ColumnView* time_col = es.event_column(cls, store::ColumnId::kEventTime);
    const store::ColumnView* type_col = es.event_column(cls, store::ColumnId::kEventType);
    const auto rows = static_cast<std::size_t>(time_col->rows);
    data.varint_bytes.emplace_back(time_col->data, time_col->size);
    std::vector<std::uint64_t> deltas(rows);
    if (rows > 0 &&
        store::decode_varint_batch(time_col->data, time_col->data + time_col->size,
                                   deltas.data(), rows) == 0) {
      std::cerr << "FAIL: varint decode of a validated column\n";
      return 1;
    }
    data.deltas.push_back(std::move(deltas));
    const auto times = es.events(cls).time;
    data.times.emplace_back(times.begin(), times.end());
    const auto types = type_col->as_u8();
    data.types.emplace_back(types.begin(), types.end());
    data.varint_total += time_col->size;
    data.rows_total += rows;
  }
  const std::size_t f64_total = data.rows_total * sizeof(double);
  std::cout << "store " << store_path << ": " << data.rows_total << " events, "
            << data.varint_total << " time-column bytes, kernel path "
            << store::kernel_path_name() << "\n";

  std::vector<std::uint64_t> scratch(data.rows_total > 0 ? data.rows_total : 1);
  std::vector<double> out_times(data.rows_total > 0 ? data.rows_total : 1);
  const std::size_t max_rows =
      [&] {
        std::size_t m = 1;
        for (const auto& t : data.types) m = std::max(m, t.size());
        return m;
      }();
  std::vector<std::uint64_t> bm(store::bitmap_words(max_rows));
  std::vector<std::uint64_t> bm1(bm.size()), bm2(bm.size()), bm3(bm.size());
  std::uint64_t sink = 0;  // observable data dependency; reported at exit

  // --- varint decode ---------------------------------------------------------
  const double varint_batch_s = time_kernel(repeat, data.varint_total, [&] {
    for (std::size_t s = 0; s < data.varint_bytes.size(); ++s) {
      const auto& buf = data.varint_bytes[s];
      sink += store::decode_varint_batch(buf.data(), buf.data() + buf.size(),
                                         scratch.data(), data.deltas[s].size());
    }
  });
  const double varint_legacy_s = time_kernel(repeat, data.varint_total, [&] {
    for (std::size_t s = 0; s < data.varint_bytes.size(); ++s) {
      const auto& buf = data.varint_bytes[s];
      const char* p = buf.data();
      const char* end = buf.data() + buf.size();
      for (std::size_t row = 0; row < data.deltas[s].size(); ++row) {
        std::uint64_t v = 0;
        p += store::decode_varint(p, end, &v);
        sink += v;
      }
    }
  });

  // --- fused zigzag prefix-sum ----------------------------------------------
  const double prefix_s = time_kernel(repeat, f64_total, [&] {
    std::size_t base = 0;
    for (const auto& deltas : data.deltas) {
      std::uint64_t prev = 0;
      store::delta_zigzag_prefix(deltas.data(), deltas.size(), &prev,
                                 out_times.data() + base);
      base += deltas.size();
      sink += prev;
    }
  });

  // --- predicate bitmaps: wide path vs forced-scalar path --------------------
  auto measure_filters = [&](double* eq_s, double* eq4_s, double* window_s) {
    *eq_s = time_kernel(repeat, data.rows_total, [&] {
      for (const auto& types : data.types) {
        store::bitmap_eq_u8(types.data(), types.size(), 1, bm.data());
        sink += bm[0];
      }
    });
    const std::uint8_t values[4] = {0, 1, 2, 3};
    *eq4_s = time_kernel(repeat, data.rows_total, [&] {
      for (const auto& types : data.types) {
        store::bitmap_eq4_u8(types.data(), types.size(), values, bm.data(),
                             bm1.data(), bm2.data(), bm3.data());
        sink += bm[0] ^ bm1[0] ^ bm2[0] ^ bm3[0];
      }
    });
    *window_s = time_kernel(repeat, f64_total, [&] {
      for (const auto& times : data.times) {
        store::bitmap_time_window(times.data(), times.size(), true, 1e7, true, 9e7,
                                  bm.data());
        sink += bm[0];
      }
    });
  };
  double eq_wide_s = 0.0, eq4_wide_s = 0.0, window_wide_s = 0.0;
  double eq_scalar_s = 0.0, eq4_scalar_s = 0.0, window_scalar_s = 0.0;
  measure_filters(&eq_wide_s, &eq4_wide_s, &window_wide_s);
  store::set_simd_enabled(false);
  measure_filters(&eq_scalar_s, &eq4_scalar_s, &window_scalar_s);
  store::set_simd_enabled(true);

  // --- crc32: dispatched vs slice-by-8 vs the bytewise loop ------------------
  store::MmapFile image;
  if (const store::Error err = image.open(store_path); !err.ok()) {
    std::cerr << err.describe() << "\n";
    return 1;
  }
  const std::uint32_t crc_dispatched = store::crc32(image.data(), image.size());
  store::set_simd_enabled(false);
  const std::uint32_t crc_slice8 = store::crc32(image.data(), image.size());
  store::set_simd_enabled(true);
  if (crc_dispatched != crc_slice8 ||
      crc_slice8 != legacy_crc32(image.data(), image.size())) {
    std::cerr << "FAIL: the CRC32 paths disagree over the image\n";
    return 1;
  }
  auto time_crc = [&] {
    return time_kernel(repeat, image.size(), [&] {
      sink += store::crc32(image.data(), image.size());
    });
  };
  const double crc_s = time_crc();
  store::set_simd_enabled(false);
  const double crc_scalar_s = time_crc();
  store::set_simd_enabled(true);
  const double crc_legacy_s = time_kernel(repeat, image.size(), [&] {
    sink += legacy_crc32(image.data(), image.size());
  });

  // --- end-to-end cold query, wide vs scalar kernel path ---------------------
  auto cold_query = [&](bool simd) {
    store::set_simd_enabled(simd);
    double best = 0.0;
    for (int r = 0; r < repeat; ++r) {
      const double t0 = now_seconds();
      store::ShardStore cold;
      if (const auto err = cold.open(store_path); !err.ok()) {
        std::cerr << "FAIL: cold open: " << err.describe() << "\n";
        std::exit(1);
      }
      const auto breakdown = core::afr_by_class(core::Source(cold));
      store::Query query;
      query.group_by = store::Query::GroupBy::kSystemClass;
      const auto result = store::run_query(cold, query);
      const double elapsed = now_seconds() - t0;
      if (r == 0 || elapsed < best) best = elapsed;
      sink += result.stats.rows_matched + breakdown.size();
    }
    store::set_simd_enabled(true);
    return best;
  };
  const double cold_wide_s = cold_query(true);
  const double cold_scalar_s = cold_query(false);
  // The checksum ties every timed kernel's output into an observable value,
  // so no measured loop can be optimized away.
  if (sink == 0xdeadbeefcafef00dull) std::cerr << "(improbable checksum)\n";

  const std::vector<std::pair<std::string, double>> numbers = {
      {"varint_batch_gbps", gbps(data.varint_total, varint_batch_s)},
      {"varint_legacy_gbps", gbps(data.varint_total, varint_legacy_s)},
      {"prefix_sum_gbps", gbps(f64_total, prefix_s)},
      {"bitmap_eq_gbps", gbps(data.rows_total, eq_wide_s)},
      {"bitmap_eq_scalar_gbps", gbps(data.rows_total, eq_scalar_s)},
      {"bitmap_eq4_gbps", gbps(data.rows_total, eq4_wide_s)},
      {"bitmap_eq4_scalar_gbps", gbps(data.rows_total, eq4_scalar_s)},
      {"time_window_gbps", gbps(f64_total, window_wide_s)},
      {"time_window_scalar_gbps", gbps(f64_total, window_scalar_s)},
      {"crc32_gbps", gbps(image.size(), crc_s)},
      {"crc32_scalar_gbps", gbps(image.size(), crc_scalar_s)},
      {"crc32_legacy_gbps", gbps(image.size(), crc_legacy_s)},
      {"cold_query_seconds", cold_wide_s},
      {"cold_query_scalar_seconds", cold_scalar_s},
  };

  std::ostringstream out;
  out << "{\n  \"benchmark\": \"decode_kernels\",\n"
      << "  \"scale\": " << options.scale << ",\n  \"seed\": " << options.seed
      << ",\n  \"repeat\": " << repeat << ",\n"
      << "  \"kernel_path\": \"" << store::kernel_path_name() << "\",\n"
      << "  \"simd_compiled\": " << (store::simd_compiled() ? "true" : "false") << ",\n"
      << "  \"events\": " << data.rows_total << ",\n"
      << "  \"time_column_bytes\": " << data.varint_total << ",\n"
      << "  \"store_bytes\": " << image.size();
  for (const auto& [name, value] : numbers) {
    out << ",\n  \"" << name << "\": " << value;
  }
  out << "\n}\n";
  if (util::publish_file(out_path, out.str()) != 0) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "varint batch " << gbps(data.varint_total, varint_batch_s)
            << " GB/s (legacy " << gbps(data.varint_total, varint_legacy_s)
            << "), crc32 " << gbps(image.size(), crc_s) << " GB/s (slice-by-8 "
            << gbps(image.size(), crc_scalar_s) << ", legacy "
            << gbps(image.size(), crc_legacy_s) << ")\n"
            << "cold query " << cold_wide_s << " s wide, " << cold_scalar_s
            << " s scalar\n"
            << "wrote " << out_path << "\n";

  bench::finish_run("bench/decode_bench", options, numbers);
  return 0;
}
