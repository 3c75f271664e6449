// Fixture: reintroductions of the retired per-backend analysis overloads.
// Every function an exported src/core header declares with a parameter of
// a concrete backend type (Dataset / EventStore / ShardStore) instead of
// core::Source is flagged once, whatever its name and wherever the
// parameter sits. Expected: 6 analysis-overload findings.
#pragma once

namespace storsubsim::core {

class Source;
class Dataset;
struct AfrReport;
struct AfrByClass;
struct DiskModelAfr;
struct VulnerabilityResult;

// Violation: the Dataset overload of compute_afr was retired.
AfrReport compute_afr(const Dataset& dataset);

// Violation: RAID vulnerability reads its rows through Source too.
VulnerabilityResult raid_vulnerability(const Dataset& dataset, double window_seconds);

// Violation: no name is reserved; every analysis takes Source.
DiskModelAfr afr_by_disk_model(const Dataset& dataset);

// Violation: the backend need not be the first parameter.
double compare_cohorts(const Source& a, const Dataset& b);

}  // namespace storsubsim::core

namespace storsubsim::store {
class EventStore;
class ShardStore;
}  // namespace storsubsim::store

namespace storsubsim::core {

// Violation: per-store overload of an analysis.
AfrByClass afr_by_class(const store::EventStore& events, double scale);

// Violation: sharded-backend overload, parameter name omitted.
double time_between_failures(const store::ShardStore&);

}  // namespace storsubsim::core
