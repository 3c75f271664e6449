// Atomic whole-file publication, the one way src/ creates a file (the btrfs
// model of docs/STORE.md "Publication"): a reader sees the old file or the
// new one, never a torn mix, and a reader that mapped the old file keeps its
// inode, so a rebuild in place cannot pull pages out from under it.
#pragma once

#include <string>
#include <string_view>

namespace storsubsim::util {

/// Writes `bytes` to `path` atomically: temp file (O_CREAT|O_EXCL, mode 0666
/// under the process umask, name unique per process and call), write loop,
/// fsync, close, rename onto `path`, fsync of the directory. Returns 0 on
/// success or the failing step's errno; on failure before the rename the
/// temp file is unlinked and `path` is untouched. Thread-safe.
[[nodiscard]] int publish_file(const std::string& path, std::string_view bytes);

}  // namespace storsubsim::util
