// Fixture: reintroductions of the retired per-backend analysis overloads.
// Each unified entry point declared with a concrete-backend first parameter
// (Dataset / EventStore / ShardStore) instead of core::Source must be
// flagged once. Expected: 4 analysis-overload findings.
namespace storsubsim::core {

class Dataset;
struct AfrReport;
struct AfrByClass;
struct VulnerabilityResult;

// Violation: the Dataset overload of compute_afr was retired.
AfrReport compute_afr(const Dataset& dataset);

// Violation: RAID vulnerability reads its rows through Source too.
VulnerabilityResult raid_vulnerability(const Dataset& dataset, double window_seconds);

}  // namespace storsubsim::core

namespace storsubsim::store {
class EventStore;
class ShardStore;
}  // namespace storsubsim::store

namespace storsubsim::core {

// Violation: per-store overload of a unified entry point.
AfrByClass afr_by_class(const store::EventStore& events, double scale);

// Violation: sharded-backend overload, parameter name omitted.
double time_between_failures(const store::ShardStore&);

}  // namespace storsubsim::core
