// Fixture: a producer header (src/core/store_bridge.h) writes backends, so
// its functions may take one. Zero findings.
#pragma once

namespace storsubsim::core {

class Dataset;

bool write_dataset(const char* path, const Dataset& dataset);

}  // namespace storsubsim::core
