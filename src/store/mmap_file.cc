#include "store/mmap_file.h"

#include <cstring>
#include <utility>

#include "util/file.h"

#if defined(__unix__) || defined(__APPLE__)
#define STORSUBSIM_HAVE_MMAP 1
#include <cerrno>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define STORSUBSIM_HAVE_MMAP 0
#include <cstdio>
#endif

namespace storsubsim::store {

MmapFile::~MmapFile() { reset(); }

MmapFile::MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this == &other) return *this;
  reset();
  fallback_ = std::move(other.fallback_);
  is_mmap_ = other.is_mmap_;
  size_ = other.size_;
  data_ = is_mmap_ ? other.data_ : fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.is_mmap_ = false;
  return *this;
}

void MmapFile::reset() noexcept {
#if STORSUBSIM_HAVE_MMAP
  if (is_mmap_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  is_mmap_ = false;
  fallback_.clear();
}

Error MmapFile::open(const std::string& path) {
  reset();
#if STORSUBSIM_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return make_error(ErrorCode::kIo, std::string("cannot open ").append(path));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return make_error(ErrorCode::kIo, std::string("cannot stat ").append(path));
  }
  if (!S_ISREG(st.st_mode)) {
    // A pipe, FIFO or /dev/stdin has no size to map (st_size is 0): read it
    // whole into the fallback buffer.
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n == 0) break;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        ::close(fd);
        fallback_.clear();
        return make_error(ErrorCode::kIo, std::string("read failed for ").append(path));
      }
      fallback_.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    data_ = fallback_.data();
    size_ = fallback_.size();
    return Error{};
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // mmap rejects zero-length mappings; an empty buffer is a valid (and
    // correctly rejected-as-truncated) input for the reader.
    ::close(fd);
    data_ = fallback_.data();
    size_ = 0;
    return Error{};
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapping == MAP_FAILED) {
    return make_error(ErrorCode::kIo, std::string("mmap failed for ").append(path));
  }
  data_ = static_cast<const char*>(mapping);
  size_ = size;
  is_mmap_ = true;
  return Error{};
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return make_error(ErrorCode::kIo, std::string("cannot open ").append(path));
  }
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    fallback_.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return make_error(ErrorCode::kIo, std::string("read failed for ").append(path));
  }
  data_ = fallback_.data();
  size_ = fallback_.size();
  return Error{};
#endif
}

Error publish_file(const std::string& path, std::string_view bytes) {
  const int err = util::publish_file(path, bytes);
  if (err == 0) return Error{};
  std::string detail("cannot publish ");
  detail.append(path).append(": ").append(std::strerror(err));
  return make_error(ErrorCode::kIo, detail);
}

}  // namespace storsubsim::store
