// The store's file I/O: MmapFile, the one whole-file reader, and
// publish_file, the one writer.
//
// MmapFile is a read-only memory-mapped file with a heap fallback.
// On POSIX hosts the file is mapped MAP_PRIVATE/PROT_READ so column readers
// alias the page cache directly (the zero-copy contract of docs/STORE.md).
// Hosts without mmap, zero-length files (which mmap rejects) and anything
// that is not a regular file (a pipe, FIFO or /dev/stdin has no size to map)
// fall back to reading the bytes into an owned buffer; callers cannot tell
// the difference and the corruption checks behave identically. A mapping
// keeps the inode it was opened on, so a file republished under the same
// name (publish_file renames a new inode over it) never changes under a
// reader.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "store/format.h"

namespace storsubsim::store {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;

  /// Maps (or reads) `path`. On failure returns a kIo error and leaves the
  /// object empty.
  [[nodiscard]] Error open(const std::string& path);

  const char* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  std::string_view view() const noexcept { return {data_, size_}; }
  bool mapped() const noexcept { return data_ != nullptr; }

 private:
  void reset() noexcept;

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool is_mmap_ = false;
  std::string fallback_;  ///< owns the bytes when mmap is unavailable
};

/// util::publish_file (temp, fsync, rename, directory fsync) with its errno
/// mapped to a kIo error naming `path`.
[[nodiscard]] Error publish_file(const std::string& path, std::string_view bytes);

}  // namespace storsubsim::store
