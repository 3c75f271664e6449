// Decode-kernel contracts (store/decode.h): the batch varint decoder must
// replicate decode_varint's exact accept/reject semantics byte for byte
// (maximum-length 10-byte varints, zigzag INT64_MIN/MAX extremes,
// non-canonical encodings, truncation mid-varint -> typed store::Error), and
// every wide (SSE2/NEON) kernel must be bit-identical to its always-compiled
// scalar fallback — including the whole-store differential: a scale-0.05
// store opened and queried through both paths yields byte-identical time
// columns, identical query results, and identical deterministic obs
// counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "obs/obs.h"
#include "sim/params.h"
#include "stats/rng.h"
#include "store/decode.h"
#include "store/format.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace obs = storsubsim::obs;
namespace sim = storsubsim::sim;
namespace stats = storsubsim::stats;
namespace store = storsubsim::store;

namespace {

/// Restores the kernel dispatch to its build default when a test that forces
/// the scalar path exits (even on assertion failure).
struct SimdGuard {
  ~SimdGuard() { store::set_simd_enabled(store::simd_compiled()); }
};

/// The per-value reference loop the reader shipped with — the arbiter the
/// batch decoder is held to.
bool reference_decode_varints(const char* p, const char* end,
                              std::vector<std::uint64_t>& out, std::size_t count,
                              std::size_t* consumed) {
  const char* cursor = p;
  out.clear();
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t v = 0;
    const std::size_t c = store::decode_varint(cursor, end, &v);
    if (c == 0) return false;
    cursor += c;
    out.push_back(v);
  }
  *consumed = static_cast<std::size_t>(cursor - p);
  return true;
}

/// Runs the batch decoder and the reference loop over the same bytes and
/// asserts identical accept/reject outcome, values, and bytes consumed.
void expect_batch_matches_reference(const std::string& buf, std::size_t count) {
  std::vector<std::uint64_t> batch(count > 0 ? count : 1);
  const std::size_t batch_consumed = store::decode_varint_batch(
      buf.data(), buf.data() + buf.size(), batch.data(), count);
  std::vector<std::uint64_t> ref;
  std::size_t ref_consumed = 0;
  const bool ref_ok = reference_decode_varints(buf.data(), buf.data() + buf.size(),
                                               ref, count, &ref_consumed);
  if (!ref_ok) {
    EXPECT_EQ(batch_consumed, 0u) << "batch accepted what the reference rejects";
    return;
  }
  ASSERT_NE(batch_consumed, 0u) << "batch rejected what the reference accepts";
  EXPECT_EQ(batch_consumed, ref_consumed);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(batch[i], ref[i]) << "value " << i;
  }
}

std::uint64_t rand_u64(stats::Rng& rng) {
  return (rng.below(1ull << 32) << 32) | rng.below(1ull << 32);
}

std::uint64_t counter_value(const char* name) {
  const auto snapshot = obs::registry().snapshot();
  const auto* metric = snapshot.find(name);
  return metric == nullptr ? 0 : metric->value;
}

/// The deterministic counters the two kernel paths must bump identically.
struct PathCounters {
  std::uint64_t decode_blocks = 0;
  std::uint64_t decode_rows = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t rows_matched = 0;
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_pruned = 0;
};

PathCounters read_counters() {
  PathCounters c;
  c.decode_blocks = counter_value("store.decode.blocks");
  c.decode_rows = counter_value("store.decode.rows");
  c.rows_scanned = counter_value("store.query.rows_scanned");
  c.rows_matched = counter_value("store.query.rows_matched");
  c.blocks_scanned = counter_value("store.query.blocks_scanned");
  c.blocks_pruned = counter_value("store.query.blocks_pruned");
  return c;
}

PathCounters delta(const PathCounters& before, const PathCounters& after) {
  PathCounters d;
  d.decode_blocks = after.decode_blocks - before.decode_blocks;
  d.decode_rows = after.decode_rows - before.decode_rows;
  d.rows_scanned = after.rows_scanned - before.rows_scanned;
  d.rows_matched = after.rows_matched - before.rows_matched;
  d.blocks_scanned = after.blocks_scanned - before.blocks_scanned;
  d.blocks_pruned = after.blocks_pruned - before.blocks_pruned;
  return d;
}

/// Shared scale-0.05 store image for the whole-store differential tests.
class DecodeStore : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto run = core::simulate_and_analyze(
        model::standard_fleet_config(0.05, 20080226), sim::SimParams::standard(), false);
    image_ = new std::string;
    ASSERT_TRUE(
        store::build_store_image(core::store_contents(run, 20080226, 0.05), image_).ok());
  }
  static void TearDownTestSuite() {
    delete image_;
    image_ = nullptr;
  }
  static std::string* image_;
};

std::string* DecodeStore::image_ = nullptr;

}  // namespace

// --- batch varint semantics --------------------------------------------------

TEST(DecodeVarintBatch, RoundTripsEveryEncodedLength) {
  // One value per encoded length 1..10, plus the boundaries on either side.
  std::vector<std::uint64_t> values = {0, 1, 0x7f};
  for (unsigned len = 2; len <= 9; ++len) {
    const std::uint64_t lo = 1ull << (7 * (len - 1));
    values.push_back(lo);          // shortest value of this length
    values.push_back(lo - 1);      // longest value of the previous length
    values.push_back(lo | 0x1234); // something in between
  }
  values.push_back(std::numeric_limits<std::uint64_t>::max());  // 10 bytes
  values.push_back((1ull << 63) | 1ull);                        // 10 bytes

  std::string buf;
  for (const auto v : values) store::append_varint(buf, v);
  expect_batch_matches_reference(buf, values.size());

  // And decoded values actually round-trip, not just agree with the loop.
  std::vector<std::uint64_t> out(values.size());
  ASSERT_EQ(store::decode_varint_batch(buf.data(), buf.data() + buf.size(),
                                       out.data(), values.size()),
            buf.size());
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(out[i], values[i]);
}

TEST(DecodeVarintBatch, MaxLengthVarintsTruncateBitsPastSixtyThree) {
  // decode_varint silently truncates bits past 63 of a 10-byte varint (only
  // bit 0 of the final byte contributes at shift 63). The batch decoder must
  // accept the same encodings with the same truncated values.
  for (const int tail : {0x01, 0x03, 0x55, 0x7f}) {
    std::string buf;
    for (int i = 0; i < 9; ++i) buf.push_back(static_cast<char>(0xff));
    buf.push_back(static_cast<char>(tail));
    expect_batch_matches_reference(buf, 1);
  }
}

TEST(DecodeVarintBatch, OverlongAndTruncatedStreamsAreRejected) {
  // 10 continuation bytes: the reference loop exhausts shift < 64 and
  // reports 0. (An 11-byte varint is indistinguishable at byte 10.)
  std::string overlong;
  for (int i = 0; i < 10; ++i) overlong.push_back(static_cast<char>(0xff));
  overlong.push_back(0x00);
  expect_batch_matches_reference(overlong, 1);

  // Every truncation point of a valid 3-varint stream, including cuts that
  // land mid-varint; the batch fast path must never read past `end`.
  std::string buf;
  store::append_varint(buf, 0x1234);
  store::append_varint(buf, std::numeric_limits<std::uint64_t>::max());
  store::append_varint(buf, 0x0badf00dull);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    expect_batch_matches_reference(buf.substr(0, cut), 3);
  }
}

TEST(DecodeVarintBatch, RandomValuesAndRandomBytesMatchTheReference) {
  stats::Rng rng(20260808);
  for (int round = 0; round < 200; ++round) {
    const std::size_t count = 1 + static_cast<std::size_t>(rng.below(300));
    std::string buf;
    if (round % 2 == 0) {
      // Valid streams of random magnitude-skewed values.
      for (std::size_t i = 0; i < count; ++i) {
        const unsigned bits = 1 + static_cast<unsigned>(rng.below(64));
        store::append_varint(buf, rand_u64(rng) >> (64 - bits));
      }
    } else {
      // Byte soup: exercises non-canonical encodings and rejections.
      const std::size_t len = static_cast<std::size_t>(rng.below(4 * count + 1));
      for (std::size_t i = 0; i < len; ++i) {
        buf.push_back(static_cast<char>(rng.below(256)));
      }
    }
    expect_batch_matches_reference(buf, count);
  }
}

// --- fused zigzag prefix-sum -------------------------------------------------

TEST(DeltaZigzagPrefix, ExtremeDeltasMatchTheScalarRecurrence) {
  // INT64_MIN/MAX deltas drive the unsigned accumulator through wraparound;
  // the kernel must reproduce the reference recurrence bit for bit.
  const std::int64_t extremes[] = {std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max(),
                                   -1, 0, 1,
                                   std::numeric_limits<std::int64_t>::min() + 1};
  std::vector<std::uint64_t> deltas;
  for (const auto d : extremes) deltas.push_back(store::zigzag_encode(d));

  std::vector<double> out(deltas.size());
  std::uint64_t prev = 0;
  store::delta_zigzag_prefix(deltas.data(), deltas.size(), &prev, out.data());

  std::uint64_t ref_prev = 0;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    ref_prev += static_cast<std::uint64_t>(store::zigzag_decode(deltas[i]));
    double t = 0.0;
    std::memcpy(&t, &ref_prev, sizeof(t));
    // Bit compare, not value compare: patterns may be NaN.
    std::uint64_t got = 0;
    std::memcpy(&got, &out[i], sizeof(got));
    EXPECT_EQ(got, ref_prev) << "delta " << i;
  }
  EXPECT_EQ(prev, ref_prev);
}

TEST(DeltaZigzagPrefix, CarriesPrevAcrossBlockBoundaries) {
  stats::Rng rng(42);
  std::vector<std::uint64_t> deltas(1000);
  for (auto& d : deltas) d = rand_u64(rng);

  std::vector<double> whole(deltas.size());
  std::uint64_t prev_whole = 0;
  store::delta_zigzag_prefix(deltas.data(), deltas.size(), &prev_whole, whole.data());

  std::vector<double> split(deltas.size());
  std::uint64_t prev_split = 0;
  const std::size_t cut = 333;
  store::delta_zigzag_prefix(deltas.data(), cut, &prev_split, split.data());
  store::delta_zigzag_prefix(deltas.data() + cut, deltas.size() - cut, &prev_split,
                             split.data() + cut);
  EXPECT_EQ(prev_split, prev_whole);
  EXPECT_EQ(std::memcmp(split.data(), whole.data(), deltas.size() * sizeof(double)), 0);
}

// --- predicate kernels: scalar/SIMD equivalence ------------------------------

TEST(KernelEquivalence, BitmapKernelsMatchTheScalarPathOnRandomInputs) {
  if (!store::simd_compiled()) GTEST_SKIP() << "no wide kernel path in this build";
  SimdGuard guard;
  stats::Rng rng(7);
  const std::size_t sizes[] = {0, 1, 3, 63, 64, 65, 127, 128, 1000, 16384, 16411};
  for (const std::size_t n : sizes) {
    std::vector<std::uint8_t> u8(n > 0 ? n : 1);
    for (auto& v : u8) v = static_cast<std::uint8_t>(rng.below(6));
    std::vector<double> f64(n > 0 ? n : 1);
    for (auto& v : f64) {
      const auto pick = rng.below(20);
      if (pick == 0) v = std::numeric_limits<double>::quiet_NaN();
      else if (pick == 1) v = std::numeric_limits<double>::infinity();
      else if (pick == 2) v = -std::numeric_limits<double>::infinity();
      else v = rng.uniform(-10.0, 10.0);
    }
    const std::size_t words = store::bitmap_words(n);
    std::vector<std::uint64_t> wide(words > 0 ? words : 1, ~0ull);
    std::vector<std::uint64_t> wide1(wide), wide2(wide), wide3(wide);
    std::vector<std::uint64_t> scalar(wide), scalar1(wide), scalar2(wide), scalar3(wide);
    const std::uint8_t values[4] = {0, 1, 2, 3};
    const auto tail_zero = [&](const std::vector<std::uint64_t>& bm) {
      if (n % 64 == 0 || words == 0) return true;
      return (bm[words - 1] & ~(~0ull >> (64 - n % 64))) == 0;
    };

    for (const bool simd : {true, false}) {
      store::set_simd_enabled(simd);
      auto& b0 = simd ? wide : scalar;
      auto& b1 = simd ? wide1 : scalar1;
      auto& b2 = simd ? wide2 : scalar2;
      auto& b3 = simd ? wide3 : scalar3;
      store::bitmap_eq_u8(u8.data(), n, 2, b0.data());
      ASSERT_TRUE(tail_zero(b0)) << "n " << n;
      store::bitmap_eq4_u8(u8.data(), n, values, b0.data(), b1.data(), b2.data(),
                           b3.data());
      store::bitmap_time_window(f64.data(), n, true, -5.0, true, 5.0, b1.data());
      store::bitmap_time_window(f64.data(), n, true, -5.0, false, 0.0, b2.data());
      store::bitmap_time_window(f64.data(), n, false, 0.0, true, 5.0, b3.data());
      ASSERT_TRUE(tail_zero(b1) && tail_zero(b2) && tail_zero(b3)) << "n " << n;
    }
    for (std::size_t w = 0; w < words; ++w) {
      ASSERT_EQ(wide[w], scalar[w]) << "eq4[0] n " << n << " word " << w;
      ASSERT_EQ(wide1[w], scalar1[w]) << "window both n " << n << " word " << w;
      ASSERT_EQ(wide2[w], scalar2[w]) << "window begin n " << n << " word " << w;
      ASSERT_EQ(wide3[w], scalar3[w]) << "window end n " << n << " word " << w;
    }

    for (const int limit_int : {0, 1, 4, 6, 255}) {
      const auto limit = static_cast<std::uint8_t>(limit_int);
      store::set_simd_enabled(true);
      const bool wide_ok = store::all_lt_u8(u8.data(), n, limit);
      store::set_simd_enabled(false);
      EXPECT_EQ(wide_ok, store::all_lt_u8(u8.data(), n, limit))
          << "n " << n << " limit " << int(limit);
    }
    std::vector<std::uint32_t> u32(n > 0 ? n : 1);
    for (auto& v : u32) {
      v = rng.below(10) == 0 ? 0xffffffffu
                             : static_cast<std::uint32_t>(rng.below(1ull << 32));
    }
    for (const std::uint32_t limit :
         {0u, 1u, 1000u, 0x80000000u, 0xfffffffeu, 0xffffffffu}) {
      for (const bool allow : {false, true}) {
        store::set_simd_enabled(true);
        const bool wide_ok = store::all_ids_in_domain_u32(u32.data(), n, limit, allow);
        store::set_simd_enabled(false);
        EXPECT_EQ(wide_ok, store::all_ids_in_domain_u32(u32.data(), n, limit, allow))
            << "n " << n << " limit " << limit << " allow " << allow;
      }
    }
  }
}

namespace {

/// Bytewise CRC32 — the definition both the slice-by-8 table and the
/// carry-less-multiply fold must reproduce.
std::uint32_t bytewise(const unsigned char* p, std::size_t n, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1u) : c >> 1u;
  }
  return c ^ 0xffffffffu;
}

}  // namespace

TEST(KernelEquivalence, SliceBy8CrcMatchesTheBytewiseDefinition) {
  stats::Rng rng(99);
  std::vector<unsigned char> buf(4096);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.below(256));
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{63},
                              std::size_t{500}, std::size_t{4096}}) {
    for (const std::size_t shift : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
      if (shift + n > buf.size()) continue;
      for (const std::uint32_t seed : {0u, 0x12345678u}) {
        EXPECT_EQ(store::crc32(buf.data() + shift, n, seed),
                  bytewise(buf.data() + shift, n, seed))
            << "n " << n << " shift " << shift;
      }
    }
  }
}

TEST(KernelEquivalence, ClmulCrcMatchesSliceBy8) {
  SimdGuard guard;
#if defined(__x86_64__) && defined(__GNUC__)
  const bool fold_live = store::simd_compiled() && __builtin_cpu_supports("pclmul") &&
                         __builtin_cpu_supports("sse4.1");
#else
  const bool fold_live = false;
#endif
  store::set_simd_enabled(true);
  if (fold_live) {
    EXPECT_STREQ(store::kernel_path_name(), "sse2+pclmul");
  }
  store::set_simd_enabled(false);
  EXPECT_STREQ(store::kernel_path_name(), "scalar");

  stats::Rng rng(4242);
  std::vector<unsigned char> buf((std::size_t{1} << 20) + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.below(256));
  // Dispatched crc32 (the fold where live; it takes sizes >= 64, rounded
  // down to 16, and hands the rest to slice-by-8) vs forced slice-by-8 vs
  // the bytewise definition.
  const auto check = [&](std::size_t shift, std::size_t n, std::uint32_t seed) {
    const unsigned char* p = buf.data() + shift;
    store::set_simd_enabled(true);
    const std::uint32_t dispatched = store::crc32(p, n, seed);
    store::set_simd_enabled(false);
    const std::uint32_t slice8 = store::crc32(p, n, seed);
    EXPECT_EQ(dispatched, slice8) << "n " << n << " shift " << shift << " seed " << seed;
    EXPECT_EQ(slice8, bytewise(p, n, seed)) << "n " << n << " shift " << shift;
  };
  for (std::size_t n = 0; n <= 300; ++n) {
    for (std::size_t shift = 0; shift < 16; ++shift) {
      for (const std::uint32_t seed : {0u, 0x12345678u}) check(shift, n, seed);
    }
  }
  // The fold's boundaries: below/at/above one 64-byte step, one 16-byte lane
  // past it, and two steps.
  for (const std::size_t n : {63u, 64u, 65u, 79u, 80u, 127u, 128u, 129u}) {
    for (const std::size_t shift : {0u, 1u, 15u}) check(shift, n, 0x12345678u);
  }
  for (int i = 0; i < 50; ++i) {
    const auto n = static_cast<std::size_t>(rng.below((std::uint64_t{1} << 20) + 1));
    check(static_cast<std::size_t>(rng.below(16)), n, static_cast<std::uint32_t>(rng()));
  }
}

// --- whole-store differential ------------------------------------------------

TEST_F(DecodeStore, EveryBlockDecodesIdenticallyThroughBatchAndReferencePaths) {
  store::EventStore es;
  ASSERT_TRUE(es.open_image(*image_).ok());
  std::vector<std::uint64_t> scratch(store::kBlockRows);
  for (const auto cls : model::kAllSystemClasses) {
    const store::ColumnView* col = es.event_column(cls, store::ColumnId::kEventTime);
    ASSERT_NE(col, nullptr);
    const char* p = col->data;
    const char* end = col->data + col->size;
    std::uint64_t prev_batch = 0, prev_ref = 0;
    const char* ref_cursor = p;
    std::uint64_t row = 0;
    while (row < col->rows) {
      const auto rows = static_cast<std::size_t>(
          std::min<std::uint64_t>(store::kBlockRows, col->rows - row));
      std::vector<double> batch(rows), ref(rows);
      const std::size_t consumed =
          store::decode_time_block(p, end, rows, scratch.data(), &prev_batch,
                                   batch.data());
      ASSERT_NE(consumed, 0u);
      p += consumed;
      for (std::size_t i = 0; i < rows; ++i) {
        std::uint64_t delta = 0;
        const std::size_t c = store::decode_varint(ref_cursor, end, &delta);
        ASSERT_NE(c, 0u);
        ref_cursor += c;
        prev_ref += static_cast<std::uint64_t>(store::zigzag_decode(delta));
        std::memcpy(&ref[i], &prev_ref, sizeof(double));
      }
      ASSERT_EQ(std::memcmp(batch.data(), ref.data(), rows * sizeof(double)), 0)
          << "block at row " << row;
      row += rows;
    }
    EXPECT_EQ(p, end);
    EXPECT_EQ(ref_cursor, end);
    EXPECT_EQ(prev_batch, prev_ref);
    // The store's cached view is the same bytes again.
    const auto view = es.events(cls).time;
    ASSERT_EQ(view.size(), static_cast<std::size_t>(col->rows));
  }
}

TEST_F(DecodeStore, ScalarAndWidePathsProduceByteIdenticalStoresAndCounters) {
  if (!store::simd_compiled()) GTEST_SKIP() << "no wide kernel path in this build";
  SimdGuard guard;

  struct PathResult {
    std::vector<std::vector<double>> times;
    store::QueryResult grouped;
    store::QueryResult windowed;
    PathCounters counters;
  };
  const auto run_path = [&](bool simd) {
    store::set_simd_enabled(simd);
    const PathCounters before = read_counters();
    PathResult r;
    store::EventStore es;
    EXPECT_TRUE(es.open_image(*image_).ok());
    for (const auto cls : model::kAllSystemClasses) {
      const auto view = es.events(cls).time;
      r.times.emplace_back(view.begin(), view.end());
    }
    store::Query grouped;
    grouped.group_by = store::Query::GroupBy::kDiskFamily;
    r.grouped = store::run_query(es, grouped);
    store::Query windowed;
    windowed.time_begin = 0.5e7;
    windowed.time_end = 5e7;
    windowed.group_by = store::Query::GroupBy::kFailureType;
    r.windowed = store::run_query(es, windowed);
    r.counters = delta(before, read_counters());
    return r;
  };
  const PathResult wide = run_path(true);
  const PathResult scalar = run_path(false);

  for (std::size_t s = 0; s < wide.times.size(); ++s) {
    ASSERT_EQ(wide.times[s].size(), scalar.times[s].size());
    ASSERT_EQ(std::memcmp(wide.times[s].data(), scalar.times[s].data(),
                          wide.times[s].size() * sizeof(double)),
              0)
        << "shard " << s;
  }
  const auto expect_same = [](const store::QueryResult& a, const store::QueryResult& b) {
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (std::size_t g = 0; g < a.groups.size(); ++g) {
      EXPECT_EQ(a.groups[g].label, b.groups[g].label);
      EXPECT_EQ(a.groups[g].events, b.groups[g].events);
      EXPECT_EQ(a.groups[g].events_by_type, b.groups[g].events_by_type);
      EXPECT_EQ(a.groups[g].disk_years, b.groups[g].disk_years);
      EXPECT_EQ(a.groups[g].afr_pct, b.groups[g].afr_pct);
    }
    EXPECT_EQ(a.stats.rows_scanned, b.stats.rows_scanned);
    EXPECT_EQ(a.stats.rows_matched, b.stats.rows_matched);
    EXPECT_EQ(a.stats.blocks_scanned, b.stats.blocks_scanned);
    EXPECT_EQ(a.stats.blocks_pruned, b.stats.blocks_pruned);
  };
  expect_same(wide.grouped, scalar.grouped);
  expect_same(wide.windowed, scalar.windowed);

  EXPECT_EQ(wide.counters.decode_blocks, scalar.counters.decode_blocks);
  EXPECT_EQ(wide.counters.decode_rows, scalar.counters.decode_rows);
  EXPECT_EQ(wide.counters.rows_scanned, scalar.counters.rows_scanned);
  EXPECT_EQ(wide.counters.rows_matched, scalar.counters.rows_matched);
  EXPECT_EQ(wide.counters.blocks_scanned, scalar.counters.blocks_scanned);
  EXPECT_EQ(wide.counters.blocks_pruned, scalar.counters.blocks_pruned);
  EXPECT_GT(wide.counters.decode_rows, 0u);
}

// --- truncation mid-varint at the store level --------------------------------

TEST_F(DecodeStore, TruncatedMidVarintBlockIsATypedError) {
  // Corrupt the time column so its final varint never terminates, then
  // re-seal the column CRC and the footer CRC so validation reaches the
  // decoder: the failure must be the decoder's typed error, never UB.
  store::EventStore probe;
  ASSERT_TRUE(probe.open_image(*image_).ok());
  const store::ColumnView* col = nullptr;
  for (const auto cls : model::kAllSystemClasses) {
    const auto* c = probe.event_column(cls, store::ColumnId::kEventTime);
    if (c != nullptr && c->rows > 0) {
      col = c;
      break;
    }
  }
  ASSERT_NE(col, nullptr) << "fixture has no events";

  std::string image = *image_;
  const std::string column_bytes(col->data, col->size);
  const std::size_t col_off = image.find(column_bytes);
  ASSERT_NE(col_off, std::string::npos);
  // Terminating byte of the last varint always has the continuation bit
  // clear; setting it makes the stream run off the end of the column.
  image[col_off + col->size - 1] = static_cast<char>(
      static_cast<unsigned char>(image[col_off + col->size - 1]) | 0x80u);

  // Patch the directory entry's CRC: the entry stores this column's offset
  // as a little-endian u64 at entry+12, CRC at entry+28 (format.md layout,
  // pinned by the golden test).
  const std::uint64_t fo = store::read_u64(image.data() + 24);
  std::string offset_le;
  store::append_u64(offset_le, col_off);
  const std::size_t entry_off = image.find(offset_le, static_cast<std::size_t>(fo));
  ASSERT_NE(entry_off, std::string::npos);
  const std::uint32_t new_crc = store::crc32(image.data() + col_off, col->size);
  std::string crc_le;
  store::append_u32(crc_le, new_crc);
  image.replace(entry_off + 16, 4, crc_le);

  // Re-seal the footer CRC over the patched payload.
  std::string footer_crc_le;
  store::append_u32(footer_crc_le,
                    store::crc32(image.data() + fo, image.size() - fo - 4));
  image.replace(image.size() - 4, 4, footer_crc_le);

  store::EventStore es;
  const auto err = es.open_image(std::move(image));
  EXPECT_EQ(err.code, store::ErrorCode::kBadValue);
  EXPECT_NE(err.detail.find("varint decode overran"), std::string::npos)
      << err.describe();
}
