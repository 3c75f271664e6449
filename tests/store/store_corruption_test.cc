// Corruption robustness: the reader validates everything at open() — magic,
// endianness, version, header/footer/per-column CRC32s, every offset, length
// and enum domain — so a hostile or damaged file yields a typed Error, never
// UB. The fuzz sections run the open path over hundreds of mutated and
// truncated images; under asan/ubsan any out-of-bounds read or signed
// overflow fails the job. The checksum tests run on both CRC kernels (the
// carry-less-multiply fold and the scalar slice-by-8) and demand the same
// error from each.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/pipeline.h"
#include "core/store_bridge.h"
#include "model/fleet_config.h"
#include "sim/params.h"
#include "stats/rng.h"
#include "store/decode.h"
#include "store/format.h"
#include "store/query.h"
#include "store/reader.h"
#include "store/writer.h"

namespace core = storsubsim::core;
namespace model = storsubsim::model;
namespace sim = storsubsim::sim;
namespace stats = storsubsim::stats;
namespace store = storsubsim::store;

namespace {

/// A small but fully populated image (all four shards, topology, footer).
const std::string& base_image() {
  static const std::string image = [] {
    const auto run = core::simulate_and_analyze(
        model::standard_fleet_config(0.01, 99), sim::SimParams::standard(), false);
    store::StoreContents contents;
    contents.inventory = &run.dataset.inventory();
    contents.events = run.dataset.events();
    contents.seed = 99;
    contents.scale = 0.01;
    std::string out;
    EXPECT_TRUE(store::build_store_image(contents, &out).ok());
    return out;
  }();
  return image;
}

/// Opens a candidate image; when it still validates, drives the query and
/// view paths so a silently-accepted corruption would still have to crash
/// to fail the test (it must not).
void open_and_exercise(std::string image) {
  store::EventStore es;
  const auto err = es.open_image(std::move(image));
  if (!err.ok()) {
    EXPECT_NE(err.code, store::ErrorCode::kOk);
    return;
  }
  store::Query query;
  query.group_by = store::Query::GroupBy::kSystemClass;
  const auto result = store::run_query(es, query);
  std::uint64_t total = 0;
  for (const auto& g : result.groups) total += g.events;
  EXPECT_LE(total, es.event_count());
  (void)es.rebuild_inventory();
}

/// Opens `image` on the default kernel path (crc32 folds with carry-less
/// multiplies where the CPU has them) and again forced onto the scalar
/// slice-by-8 path. Both must reject it with the same code, detail and
/// offset; returns that error.
store::Error open_on_both_crc_paths(const std::string& image) {
  store::set_simd_enabled(true);
  store::EventStore wide;
  const store::Error wide_err = wide.open_image(image);
  store::set_simd_enabled(false);
  store::EventStore scalar;
  const store::Error scalar_err = scalar.open_image(image);
  store::set_simd_enabled(store::simd_compiled());
  EXPECT_EQ(wide_err.describe(), scalar_err.describe());
  return wide_err;
}

}  // namespace

TEST(StoreCorruption, EmptyAndTinyFilesAreTruncated) {
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                                store::kHeaderSize - 1}) {
    store::EventStore es;
    const auto err = es.open_image(base_image().substr(0, len));
    EXPECT_EQ(err.code, store::ErrorCode::kTruncated) << "length " << len;
  }
}

TEST(StoreCorruption, BadMagicIsTyped) {
  std::string image = base_image();
  image[0] = 'X';
  store::EventStore es;
  EXPECT_EQ(es.open_image(std::move(image)).code, store::ErrorCode::kBadMagic);
}

TEST(StoreCorruption, ForeignEndiannessIsTyped) {
  std::string image = base_image();
  // A little-endian writer stores the 0x01020304 tag as bytes 04 03 02 01;
  // a big-endian writer would have laid down 01 02 03 04.
  image[8] = 0x01;
  image[9] = 0x02;
  image[10] = 0x03;
  image[11] = 0x04;
  store::EventStore es;
  EXPECT_EQ(es.open_image(std::move(image)).code, store::ErrorCode::kBadEndianness);
}

TEST(StoreCorruption, UnsupportedVersionIsTyped) {
  std::string image = base_image();
  // Bump the version and re-seal the header CRC so the version check (not
  // the checksum) is what fires.
  const std::uint32_t version = 2;
  std::memcpy(image.data() + 12, &version, sizeof(version));
  const std::uint32_t crc = store::crc32(image.data(), store::kHeaderSize - 4);
  std::memcpy(image.data() + store::kHeaderSize - 4, &crc, sizeof(crc));
  store::EventStore es;
  EXPECT_EQ(es.open_image(std::move(image)).code, store::ErrorCode::kBadVersion);
}

TEST(StoreCorruption, HeaderBitFlipFailsTheHeaderCrc) {
  std::string image = base_image();
  image[70] = static_cast<char>(image[70] ^ 0x10);  // inside event_count
  EXPECT_EQ(open_on_both_crc_paths(image).code, store::ErrorCode::kBadHeader);
}

TEST(StoreCorruption, ColumnBitFlipFailsTheColumnCrc) {
  // Flip a byte in the first column block (just past the header padding);
  // the per-column CRC recorded in the directory must catch it.
  std::string image = base_image();
  image[store::kHeaderSize + 3] = static_cast<char>(image[store::kHeaderSize + 3] ^ 0x40);
  const auto err = open_on_both_crc_paths(image);
  EXPECT_EQ(err.code, store::ErrorCode::kChecksum);
}

TEST(StoreCorruption, ColumnBitFlipFailsOnTheFoldAndOnTheSliceBy8Tail) {
  // A column long enough for the CRC fold (>= 64 bytes) whose size is not a
  // multiple of 16: the fold checksums its first size - size % 16 bytes and
  // slice-by-8 the rest, so a flip in its first 64 bytes is caught by the
  // fold and one in its last size % 16 bytes by the tail loop.
  store::EventStore probe;
  ASSERT_TRUE(probe.open_image(base_image()).ok());
  // Every column aliases one buffer whose first column sits right after the
  // header; the lowest column address is therefore file offset kHeaderSize.
  const char* first = nullptr;
  const store::ColumnView* target = nullptr;
  for (auto raw = static_cast<std::uint16_t>(store::ColumnId::kSysClass);
       raw <= static_cast<std::uint16_t>(store::ColumnId::kRgSpan); ++raw) {
    const store::ColumnView* col = probe.topology(static_cast<store::ColumnId>(raw));
    ASSERT_NE(col, nullptr);
    if (first == nullptr || col->data < first) first = col->data;
    if (target == nullptr && col->size >= 64 && col->size % 16 != 0) target = col;
  }
  ASSERT_NE(target, nullptr);
  const auto col_off = store::kHeaderSize + static_cast<std::size_t>(target->data - first);
  for (const std::size_t pos : {std::size_t{0}, std::size_t{63}, target->size - target->size % 16,
                                target->size - 1}) {
    std::string image = base_image();
    image[col_off + pos] = static_cast<char>(image[col_off + pos] ^ 0x08);
    const auto err = open_on_both_crc_paths(image);
    EXPECT_EQ(err.code, store::ErrorCode::kChecksum) << "byte " << pos;
    EXPECT_EQ(err.offset, col_off) << "byte " << pos;
    EXPECT_EQ(err.detail, "column CRC32 mismatch (column " +
                              std::string(store::column_name(target->id)) + ")")
        << "byte " << pos;
  }
}

TEST(StoreCorruption, FooterBitFlipFailsTheFooterCrc) {
  std::string image = base_image();
  const auto footer_offset = store::read_u64(image.data() + 24);
  image[footer_offset + 2] = static_cast<char>(image[footer_offset + 2] ^ 0x01);
  const auto err = open_on_both_crc_paths(image);
  EXPECT_EQ(err.code, store::ErrorCode::kBadFooter);
}

TEST(StoreCorruption, TruncationSweepNeverCrashes) {
  const std::string& image = base_image();
  stats::Rng rng(2024);
  // Every structural boundary plus a random spread of interior cuts.
  std::vector<std::size_t> cuts = {store::kHeaderSize, image.size() - 1,
                                   image.size() - 4, image.size() - 5,
                                   static_cast<std::size_t>(store::read_u64(image.data() + 24)),
                                   image.size() / 2};
  for (int i = 0; i < 64; ++i) {
    cuts.push_back(static_cast<std::size_t>(rng.below(image.size())));
  }
  for (const auto cut : cuts) {
    store::EventStore es;
    const auto err = es.open_image(image.substr(0, cut));
    EXPECT_NE(err.code, store::ErrorCode::kOk) << "cut at " << cut;
  }
}

TEST(StoreCorruption, RandomByteMutationsNeverCrash) {
  const std::string& image = base_image();
  stats::Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    std::string mutated = image;
    const auto pos = static_cast<std::size_t>(rng.below(mutated.size()));
    const auto bit = static_cast<char>(1u << rng.below(8));
    mutated[pos] = static_cast<char>(mutated[pos] ^ bit);
    open_and_exercise(std::move(mutated));
  }
}

TEST(StoreCorruption, RandomSpanGarbageNeverCrashes) {
  const std::string& image = base_image();
  stats::Rng rng(1234);
  for (int i = 0; i < 120; ++i) {
    std::string mutated = image;
    const auto span = 1 + static_cast<std::size_t>(rng.below(32));
    const auto pos = static_cast<std::size_t>(rng.below(mutated.size() - span));
    for (std::size_t b = 0; b < span; ++b) {
      mutated[pos + b] = static_cast<char>(rng.below(256));
    }
    open_and_exercise(std::move(mutated));
  }
}

TEST(StoreCorruption, ContinuationBitSweepReachesTheDecoderNotTheChecksum) {
  // Setting continuation bits inside a time column desynchronises the varint
  // stream. Unlike the blind bit flips above, this sweep re-seals the column
  // and footer CRCs so checksum validation passes and the *decoder* is what
  // has to cope: it must either produce a typed error or decode a stream
  // that still parses — never UB (asan/ubsan audits this test).
  store::EventStore probe;
  ASSERT_TRUE(probe.open_image(base_image()).ok());
  stats::Rng rng(314159);
  for (const auto cls : model::kAllSystemClasses) {
    const auto* col = probe.event_column(cls, store::ColumnId::kEventTime);
    if (col == nullptr || col->size == 0) continue;
    const std::size_t col_off = base_image().find(std::string(col->data, col->size));
    ASSERT_NE(col_off, std::string::npos);
    // Locate the directory entry via its stored offset (u64 at entry+12,
    // CRC at entry+28 — the layout the golden test pins).
    const std::uint64_t fo = store::read_u64(base_image().data() + 24);
    std::string offset_le;
    store::append_u64(offset_le, col_off);
    const std::size_t entry_off =
        base_image().find(offset_le, static_cast<std::size_t>(fo));
    ASSERT_NE(entry_off, std::string::npos);

    std::vector<std::size_t> positions = {col->size - 1};  // unterminated tail
    for (int i = 0; i < 12; ++i) {
      positions.push_back(static_cast<std::size_t>(rng.below(col->size)));
    }
    for (const auto pos : positions) {
      std::string image = base_image();
      image[col_off + pos] = static_cast<char>(
          static_cast<unsigned char>(image[col_off + pos]) | 0x80u);
      std::string crc_le;
      store::append_u32(crc_le, store::crc32(image.data() + col_off, col->size));
      image.replace(entry_off + 16, 4, crc_le);
      std::string footer_crc_le;
      store::append_u32(footer_crc_le,
                        store::crc32(image.data() + fo, image.size() - fo - 4));
      image.replace(image.size() - 4, 4, footer_crc_le);
      open_and_exercise(std::move(image));
    }
  }
}

TEST(StoreCorruption, RandomTruncationPlusMutationNeverCrashes) {
  const std::string& image = base_image();
  stats::Rng rng(55);
  for (int i = 0; i < 120; ++i) {
    std::string mutated = image.substr(0, 1 + rng.below(image.size()));
    if (!mutated.empty()) {
      const auto pos = static_cast<std::size_t>(rng.below(mutated.size()));
      mutated[pos] = static_cast<char>(rng.below(256));
    }
    open_and_exercise(std::move(mutated));
  }
}
