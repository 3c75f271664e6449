// Declarative queries over an opened EventStore or ShardStore.
//
// A Query is the store-side analogue of core::Filter plus a group-by: select
// events by failure type / system class / disk family / detection-time
// window, then aggregate counts (and AFR-style rates where a disk-year
// denominator is defined) per group. Time-window predicates prune whole
// blocks through the footer's block index before any row is touched.
//
// Rates use the footer's pre-computed exposure table, so a rate produced
// here is bit-identical to the matching in-memory Dataset computation.
// Queries with a time-window predicate report counts only (`disk_years`
// stays 0 — exposure within an arbitrary window is not stored).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/enums.h"
#include "store/reader.h"
#include "store/shards.h"

namespace storsubsim::store {

struct Query {
  enum class GroupBy : std::uint8_t {
    kNone,         ///< one aggregate over everything selected
    kSystemClass,  ///< one group per system class
    kFailureType,  ///< one group per failure type
    kDiskFamily,   ///< one group per (system) disk family
  };

  std::optional<model::SystemClass> system_class;
  std::optional<model::FailureType> failure_type;
  std::optional<char> disk_family;  ///< owning system's family (Filter semantics)
  std::optional<double> time_begin; ///< inclusive lower bound on detection time
  std::optional<double> time_end;   ///< exclusive upper bound
  GroupBy group_by = GroupBy::kNone;
};

struct QueryGroup {
  std::string label;
  std::array<std::uint64_t, kFailureTypeCount> events_by_type{};
  std::uint64_t events = 0;
  /// Cohort denominator; 0 when undefined (time-window queries).
  double disk_years = 0.0;
  /// 100 * events / disk_years when disk_years > 0, else 0.
  double afr_pct = 0.0;
};

/// Scan accounting: how much work the block index saved.
struct QueryStats {
  std::uint64_t rows_scanned = 0;
  std::uint64_t rows_matched = 0;
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_pruned = 0;
};

struct QueryResult {
  std::vector<QueryGroup> groups;
  QueryStats stats;
};

/// Fixed-size selection-bitmap scratch, reused across every block of a scan.
/// open() rejects blocks larger than kBlockRows, so kWords words always
/// suffice — no per-block allocation on the hot path. The arena shape a
/// long-lived request handler wants: allocate once, run any number of
/// queries through it (storsimd keeps a pool of these; docs/SERVE.md).
struct ScanScratch {
  /// bitmap_words(kBlockRows); spelled out so this header needs no decode.h.
  static constexpr std::size_t kWords = (kBlockRows + 63) / 64;
  std::array<std::uint64_t, kWords> select;  ///< rows passing every predicate
  std::array<std::uint64_t, kWords> mask;    ///< per-predicate temporary
  std::array<std::array<std::uint64_t, kWords>, kFailureTypeCount> type_masks;
};

/// Counts accumulated for one group before labels/rates are attached.
struct QueryGroupCounts {
  std::array<std::uint64_t, kFailureTypeCount> events_by_type{};
  std::uint64_t events = 0;
};

/// Group accumulators shared by the single-store and sharded scans. All
/// fields are integer counts, so accumulating several stores into one set
/// of accumulators is exact and order-independent.
struct QueryAccumulators {
  QueryGroupCounts all;                                       // GroupBy::kNone
  std::array<QueryGroupCounts, kClassCount> by_class{};       // GroupBy::kSystemClass
  std::array<QueryGroupCounts, kFailureTypeCount> by_type{};  // GroupBy::kFailureType
  std::map<char, QueryGroupCounts> by_family;                 // GroupBy::kDiskFamily
};

/// One query's incremental execution: scan any number of stores (shards),
/// then finish against the merged exposure table. Both run_query overloads
/// are thin wrappers around this; storsimd drives it directly so the LRU
/// can pin/scan/release one shard at a time. The scratch is borrowed, not
/// owned — the caller controls its lifetime (and reuse across requests).
class QueryRun {
 public:
  /// `scratch` must outlive the run.
  QueryRun(const Query& query, ScanScratch* scratch) noexcept
      : query_(query), scratch_(scratch) {}

  /// Accumulates one store's matching rows. Callable repeatedly; shard
  /// order cannot affect the totals (integer sums).
  void scan(const EventStore& store);

  /// Labels the accumulated counts, attaches rates from `exposure`, and
  /// records the scan counters. Call once, after the last scan().
  [[nodiscard]] QueryResult finish(const ExposureTable& exposure);

 private:
  Query query_;
  ScanScratch* scratch_;
  QueryAccumulators acc_;
  QueryStats stats_;
};

QueryResult run_query(const EventStore& store, const Query& query);

/// The same query over an opened ShardStore (a shard directory, or a single
/// file as one shard), every shard of which is open (open_all). The
/// per-group counts are integer sums over shards (exact regardless of order)
/// and the rates come from the store's exposure table, so the result is
/// byte-identical to running the query against the equivalent single-file
/// EventStore.
QueryResult run_query(const ShardStore& store, const Query& query);

}  // namespace storsubsim::store
