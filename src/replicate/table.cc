#include "replicate/table.h"

#include "store/mmap_file.h"

namespace storsubsim::replicate {

namespace {

using store::append_f64;
using store::append_u16;
using store::append_u32;
using store::append_u64;
using store::append_u8;
using store::ErrorCode;
using store::make_error;
using store::read_f64;
using store::read_u16;
using store::read_u32;
using store::read_u64;
using store::read_u8;

/// Bounds-checked cursor over the mapped image; every read method fails
/// closed with kTruncated instead of walking past the end.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : p_(data), end_(data + size), base_(data) {}

  std::uint64_t offset() const { return static_cast<std::uint64_t>(p_ - base_); }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  bool take(std::size_t n, const char** out) {
    if (remaining() < n) return false;
    *out = p_;
    p_ += n;
    return true;
  }

  bool u8(std::uint8_t* out) { return scalar(out, read_u8); }
  bool u16(std::uint16_t* out) { return scalar(out, read_u16); }
  bool u32(std::uint32_t* out) { return scalar(out, read_u32); }
  bool u64(std::uint64_t* out) { return scalar(out, read_u64); }
  bool f64(double* out) { return scalar(out, read_f64); }

 private:
  template <typename T, typename Fn>
  bool scalar(T* out, Fn read) {
    const char* at = nullptr;
    if (!take(sizeof(T), &at)) return false;
    *out = read(at);
    return true;
  }

  const char* p_;
  const char* end_;
  const char* base_;
};

constexpr std::size_t kMaxStatName = 256;  ///< sanity bound on decoded names

}  // namespace

std::string encode_table(const ReplicateSummary& summary) {
  std::string out;
  out.reserve(512 + summary.stats.size() * (64 + summary.replicates * 8));

  out.append(kTableMagic.data(), kTableMagic.size());
  append_u32(out, kTableVersion);
  append_u32(out, static_cast<std::uint32_t>(summary.stats.size()));
  append_u64(out, summary.options.seed);
  append_f64(out, summary.options.scale);
  append_f64(out, summary.options.confidence);
  append_f64(out, summary.options.ci_rel);
  append_u64(out, summary.options.max_replicates);
  append_u64(out, summary.options.min_replicates);
  append_u64(out, summary.options.batch);
  append_u64(out, summary.replicates);
  append_u8(out, static_cast<std::uint8_t>(summary.stop_reason));
  for (int i = 0; i < 7; ++i) append_u8(out, 0);

  for (const auto& stat : summary.stats) {
    append_u16(out, static_cast<std::uint16_t>(stat.name.size()));
    out.append(stat.name);
    append_u8(out, static_cast<std::uint8_t>(stat.family));
    append_u64(out, stat.stopped_at);
    append_f64(out, stat.mean);
    append_f64(out, stat.stddev);
    append_f64(out, stat.ci.lower);
    append_f64(out, stat.ci.upper);
    append_f64(out, stat.p025);
    append_f64(out, stat.p500);
    append_f64(out, stat.p975);
  }

  for (const auto& column : summary.values) {
    for (const double v : column) append_f64(out, v);
  }

  append_u32(out, store::crc32(out.data(), out.size()));
  return out;
}

store::Error decode_table(std::string_view bytes, ReplicateSummary* out) {
  if (bytes.size() < kTableMagic.size() + 4) {
    return make_error(ErrorCode::kTruncated, "replicate table shorter than its magic");
  }
  if (std::memcmp(bytes.data(), kTableMagic.data(), kTableMagic.size()) != 0) {
    return make_error(ErrorCode::kBadMagic, "not a STORREP1 replicate table");
  }
  if (bytes.size() < 4) {
    return make_error(ErrorCode::kTruncated, "replicate table missing trailing crc");
  }
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t want_crc = read_u32(bytes.data() + body);
  const std::uint32_t have_crc = store::crc32(bytes.data(), body);
  if (want_crc != have_crc) {
    return make_error(ErrorCode::kChecksum, "replicate table crc mismatch", body);
  }

  Cursor cur(bytes.data(), body);
  const char* skip = nullptr;
  (void)cur.take(kTableMagic.size(), &skip);

  std::uint32_t version = 0, stat_count = 0;
  if (!cur.u32(&version) || !cur.u32(&stat_count)) {
    return make_error(ErrorCode::kTruncated, "replicate table header truncated",
                      cur.offset());
  }
  if (version != kTableVersion) {
    return make_error(ErrorCode::kBadVersion,
                      "replicate table version " + std::to_string(version));
  }

  ReplicateSummary summary;
  std::uint64_t max_replicates = 0, min_replicates = 0, batch = 0, replicates = 0;
  std::uint8_t stop_reason = 0;
  if (!cur.u64(&summary.options.seed) || !cur.f64(&summary.options.scale) ||
      !cur.f64(&summary.options.confidence) || !cur.f64(&summary.options.ci_rel) ||
      !cur.u64(&max_replicates) || !cur.u64(&min_replicates) || !cur.u64(&batch) ||
      !cur.u64(&replicates) || !cur.u8(&stop_reason) || !cur.take(7, &skip)) {
    return make_error(ErrorCode::kTruncated, "replicate table header truncated",
                      cur.offset());
  }
  summary.options.max_replicates = max_replicates;
  summary.options.min_replicates = min_replicates;
  summary.options.batch = batch;
  summary.replicates = replicates;
  if (stop_reason > static_cast<std::uint8_t>(StopReason::kConverged)) {
    return make_error(ErrorCode::kBadValue,
                      "unknown stop reason " + std::to_string(stop_reason));
  }
  summary.stop_reason = static_cast<StopReason>(stop_reason);

  summary.stats.reserve(stat_count);
  for (std::uint32_t s = 0; s < stat_count; ++s) {
    StatSummary stat;
    std::uint16_t name_len = 0;
    if (!cur.u16(&name_len)) {
      return make_error(ErrorCode::kTruncated, "statistic name truncated", cur.offset());
    }
    if (name_len == 0 || name_len > kMaxStatName) {
      return make_error(ErrorCode::kBadValue,
                        "statistic name length " + std::to_string(name_len), cur.offset());
    }
    const char* name = nullptr;
    std::uint8_t family = 0;
    if (!cur.take(name_len, &name) || !cur.u8(&family) || !cur.u64(&stat.stopped_at) ||
        !cur.f64(&stat.mean) || !cur.f64(&stat.stddev) || !cur.f64(&stat.ci.lower) ||
        !cur.f64(&stat.ci.upper) || !cur.f64(&stat.p025) || !cur.f64(&stat.p500) ||
        !cur.f64(&stat.p975)) {
      return make_error(ErrorCode::kTruncated, "statistic record truncated", cur.offset());
    }
    stat.name.assign(name, name_len);
    bool known_family = false;
    for (const core::StatisticId id : core::kAllStatistics) {
      if (static_cast<std::uint8_t>(id) == family) known_family = true;
    }
    if (!known_family) {
      return make_error(ErrorCode::kBadValue,
                        "unknown statistic family " + std::to_string(family), cur.offset());
    }
    stat.family = static_cast<core::StatisticId>(family);
    stat.ci.point = stat.mean;
    summary.stats.push_back(std::move(stat));
  }

  // Check the matrix size without overflow: remaining() bounds the product.
  if (stat_count != 0 && replicates > cur.remaining() / 8 / stat_count) {
    return make_error(ErrorCode::kTruncated, "replicate values matrix size mismatch",
                      cur.offset());
  }
  if (cur.remaining() != static_cast<std::size_t>(stat_count) * replicates * 8) {
    return make_error(ErrorCode::kTruncated, "replicate values matrix size mismatch",
                      cur.offset());
  }
  summary.values.assign(stat_count, {});
  for (std::uint32_t s = 0; s < stat_count; ++s) {
    summary.values[s].resize(replicates);
    for (std::uint64_t r = 0; r < replicates; ++r) {
      (void)cur.f64(&summary.values[s][r]);
    }
  }

  *out = std::move(summary);
  return store::Error{};
}

store::Error write_table(const std::string& path, const ReplicateSummary& summary) {
  return store::publish_file(path, encode_table(summary));
}

store::Error read_table(const std::string& path, ReplicateSummary* out) {
  store::MmapFile file;
  if (store::Error err = file.open(path); !err.ok()) return err;
  return decode_table(file.view(), out);
}

}  // namespace storsubsim::replicate
