// Fixture: the sanctioned shapes around the Source-taking analysis API.
// Source's constructors, a backend's own constructors, private members,
// names that merely contain a backend's, and call sites passing backend
// lvalues are all legal. Zero findings.
#pragma once

namespace storsubsim::store {
class EventStore;
}  // namespace storsubsim::store

namespace storsubsim::core {

class Dataset;
struct AfrReport;
struct SimulationDataset;

class Source {
 public:
  // The one place a backend becomes a Source.
  Source(const Dataset& dataset);  // NOLINT
  Source(Dataset&&) = delete;

 private:
  // Implementation detail, not API.
  void read_shard(const store::EventStore& shard) const;
};

// The analysis itself: its parameter is core::Source.
AfrReport compute_afr(const Source& source);

// SimulationDataset is a run, not the Dataset backend.
double run_seconds(const SimulationDataset& run);

// A call site handing a Dataset member to the Source parameter is the
// sanctioned implicit conversion, not a redeclaration.
inline AfrReport call_site_probe(const SimulationDataset& run) {
  return compute_afr(run.dataset);
}

}  // namespace storsubsim::core
