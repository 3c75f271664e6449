// core::Source — the unified input façade for the analysis API.
//
// Source is a non-owning variant over the two data shapes the analyses
// accept: the in-memory Dataset (simulate -> emit -> parse -> classify) and
// a store::ShardStore — a shard directory or a single STORCOL1 file opened
// as one shard (docs/STORE.md). It is implicitly constructible from either,
// so a single `compute_afr(const Source&)`-style entry point serves both,
// and each analysis is written once per data shape. The two paths are
// pinned bit-identical by the Source equivalence suite
// (tests/core/source_test.cc).
//
// Analyses over a ShardStore rebase each shard's local ids through the
// manifest's prefix-sum bases (identity for a single file) and reproduce
// the single-file accumulation order, so results are byte-identical however
// the store is split.
//
// Precondition: a Source over a ShardStore has every shard open. Analyses
// read shard(i) directly and have no error channel. Every in-tree entry
// point establishes this: the CLI calls open_all(), storsimd pins every
// shard (ShardLru::pin_all), and opening a single file validates it eagerly.
//
// Ownership: Source borrows. The referenced backend must outlive the
// Source; construction from temporaries is deleted to make the obvious
// dangling pattern (wrapping the result of dataset.filter(...) and keeping
// it) a compile error. See docs/API.md.
#pragma once

#include <variant>

#include "core/dataset.h"
#include "store/shards.h"

namespace storsubsim::core {

class Source {
 public:
  // Implicit by design: call sites read compute_afr(dataset) and
  // compute_afr(store), not compute_afr(Source(dataset)).
  Source(const Dataset& dataset) noexcept : ref_(&dataset) {}          // NOLINT
  Source(const store::ShardStore& shards) noexcept : ref_(&shards) {}  // NOLINT
  Source(Dataset&&) = delete;
  Source(store::ShardStore&&) = delete;

  /// The dataset backend, or nullptr otherwise.
  const Dataset* dataset() const noexcept {
    const auto* const* d = std::get_if<const Dataset*>(&ref_);
    return d != nullptr ? *d : nullptr;
  }

  /// The store backend, or nullptr otherwise.
  const store::ShardStore* shards() const noexcept {
    const auto* const* s = std::get_if<const store::ShardStore*>(&ref_);
    return s != nullptr ? *s : nullptr;
  }

 private:
  std::variant<const Dataset*, const store::ShardStore*> ref_;
};

}  // namespace storsubsim::core
